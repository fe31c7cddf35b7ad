// Command app is the census fixture's only binary.
package main

import "fixture/internal/live"

func main() {
	var t live.T
	live.Used()
	t.Do()
	_ = t.String()
}
