// Package live is reached from cmd/app; one of its exported funcs and one
// of its methods are called by nothing.
package live

// Used is called by cmd/app.
func Used() { helper() }

func helper() {}

// Dead is called by nothing: the census must name it.
func Dead() {}

// T has one called method, one interface method and one dead method.
type T struct{}

// Do is called by cmd/app.
func (T) Do() {}

// String satisfies fmt.Stringer.
func (T) String() string { return "T" }

// Visit is a method of the module's Visitor interface.
func (T) Visit() {}

// Dead is called by nothing: the census must name it.
func (T) Dead() {}

// Visitor makes Visit an interface method.
type Visitor interface{ Visit() }
