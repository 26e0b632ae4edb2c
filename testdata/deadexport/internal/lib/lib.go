// Package lib is the dead-export gate's fixture: each export below is
// either dead or spared by exactly one rule of the classifier.
package lib

// Dead has no reference at all.
func Dead() {}

// OnlyOwnTest is referenced by this package's test only.
func OnlyOwnTest() int { return 1 }

// Recursive refers only to itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// TestedElsewhere is referenced by another package's test, which counts.
func TestedElsewhere() int { return 2 }

// Shape is used by package use, which calls Area only through an interface.
type Shape struct{ W, H float64 }

// Area satisfies use.Areaer.
func (s Shape) Area() float64 { return s.W * s.H }

// Unused is a method no interface asks for and nothing calls.
func (s Shape) Unused() {}

// Err is returned by package use; its methods are called by fmt and errors.
type Err struct{}

func (Err) Error() string  { return "fixture" }
func (Err) String() string { return "fixture" }

// Unreached is mentioned only by its own methods.
type Unreached struct{}

// Work refers to its own type only.
func (u *Unreached) Work() *Unreached { return &Unreached{} }
