package use

import (
	"testing"

	"fixture/internal/lib"
)

func TestTestedElsewhere(t *testing.T) {
	if lib.TestedElsewhere() != 2 || Total(Square(2)) != 4 || Fail() == nil {
		t.Fatal("fixture")
	}
}
