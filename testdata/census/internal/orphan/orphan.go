// Package orphan is imported by nothing: the census must name it.
package orphan

// Alone is called by nothing.
func Alone() {}
