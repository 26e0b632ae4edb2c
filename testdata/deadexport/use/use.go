// Package use is the live caller of the fixture's lib package.
package use

import "fixture/internal/lib"

// Areaer is the interface lib.Shape satisfies.
type Areaer interface{ Area() float64 }

// Total sums areas through the interface.
func Total(shapes ...Areaer) float64 {
	t := 0.0
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Square returns a lib.Shape behind the interface.
func Square(side float64) Areaer { return lib.Shape{W: side, H: side} }

// Fail returns a lib.Err.
func Fail() error { return lib.Err{} }
