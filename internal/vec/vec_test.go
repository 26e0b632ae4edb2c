package vec

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestVecBasics(t *testing.T) {
	v := Vec{1, -2, 0}
	w := v.Clone()
	if !v.Equal(w) {
		t.Fatalf("clone not equal: %v vs %v", v, w)
	}
	w[0] = 9
	if v[0] == 9 {
		t.Fatalf("clone aliases original")
	}
	if v.IsZero() {
		t.Errorf("%v reported zero", v)
	}
	if !(Vec{0, 0, 0}).IsZero() {
		t.Errorf("zero vector not reported zero")
	}
	if got := v.NonZeros(); got != 2 {
		t.Errorf("NonZeros(%v) = %d, want 2", v, got)
	}
	if got := v.Sub(Vec{1, 1, 1}); !got.Equal(Vec{0, -3, -1}) {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Neg(); !got.Equal(Vec{-1, 2, 0}) {
		t.Errorf("Neg = %v", got)
	}
	if got := v.String(); got != "(1,-2,0)" {
		t.Errorf("String = %q", got)
	}
}

func TestVecLessLexicographic(t *testing.T) {
	cases := []struct {
		a, b Vec
		want bool
	}{
		{Vec{0, 0}, Vec{0, 1}, true},
		{Vec{0, 1}, Vec{0, 0}, false},
		{Vec{1, 0}, Vec{0, 9}, false},
		{Vec{-1, 5}, Vec{0, -9}, true},
		{Vec{2, 2}, Vec{2, 2}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("Less(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSortLex(t *testing.T) {
	vs := []Vec{{1, 1}, {-1, 0}, {0, 2}, {-1, -1}, {0, 2}}
	SortLex(vs)
	want := []Vec{{-1, -1}, {-1, 0}, {0, 2}, {0, 2}, {1, 1}}
	for i := range want {
		if !vs[i].Equal(want[i]) {
			t.Fatalf("SortLex = %v, want %v", vs, want)
		}
	}
}

func TestGridRankCoordRoundTrip(t *testing.T) {
	g, err := NewGrid([]int{3, 4, 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 60 {
		t.Fatalf("Size = %d, want 60", g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		c := g.CoordOf(r)
		back, err := g.RankOf(c)
		if err != nil {
			t.Fatalf("RankOf(%v): %v", c, err)
		}
		if back != r {
			t.Fatalf("round trip %d -> %v -> %d", r, c, back)
		}
	}
}

func TestGridRowMajorOrder(t *testing.T) {
	g, _ := NewGrid([]int{2, 3}, nil)
	// MPI convention: last dimension varies fastest.
	want := []Vec{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}}
	for r, w := range want {
		if got := g.CoordOf(r); !got.Equal(w) {
			t.Errorf("CoordOf(%d) = %v, want %v", r, got, w)
		}
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(nil, nil); err == nil {
		t.Error("NewGrid(nil) succeeded")
	}
	if _, err := NewGrid([]int{2, 0}, nil); err == nil {
		t.Error("NewGrid with zero extent succeeded")
	}
	if _, err := NewGrid([]int{2, 2}, []bool{true}); err == nil {
		t.Error("NewGrid with mismatched periods succeeded")
	}
	g, _ := NewGrid([]int{2, 2}, nil)
	if _, err := g.RankOf(Vec{1}); err == nil {
		t.Error("RankOf with wrong arity succeeded")
	}
	if _, err := g.RankOf(Vec{2, 0}); err == nil {
		t.Error("RankOf out of range succeeded")
	}
}

func TestDisplacePeriodic(t *testing.T) {
	g, _ := NewGrid([]int{3, 3}, nil) // torus
	dst, ok := g.Displace(Vec{0, 0}, Vec{-1, -1})
	if !ok || !dst.Equal(Vec{2, 2}) {
		t.Fatalf("Displace wrap = %v, %v", dst, ok)
	}
	dst, ok = g.Displace(Vec{2, 2}, Vec{4, 7})
	if !ok || !dst.Equal(Vec{0, 0}) {
		t.Fatalf("Displace big wrap = %v, %v", dst, ok)
	}
}

func TestDisplaceMeshBoundary(t *testing.T) {
	g, _ := NewGrid([]int{3, 3}, []bool{false, true})
	if _, ok := g.Displace(Vec{0, 0}, Vec{-1, 0}); ok {
		t.Error("mesh displacement off the edge succeeded")
	}
	dst, ok := g.Displace(Vec{0, 0}, Vec{0, -1})
	if !ok || !dst.Equal(Vec{0, 2}) {
		t.Errorf("periodic dimension failed to wrap: %v %v", dst, ok)
	}
}

func TestRankDisplace(t *testing.T) {
	g, _ := NewGrid([]int{4, 4}, nil)
	// rank 0 = (0,0); offset (1,1) -> (1,1) = rank 5.
	r, ok := g.RankDisplace(0, Vec{1, 1})
	if !ok || r != 5 {
		t.Fatalf("RankDisplace = %d, %v; want 5", r, ok)
	}
	r, ok = g.RankDisplace(0, Vec{-1, -1})
	if !ok || r != 15 {
		t.Fatalf("RankDisplace wrap = %d, %v; want 15", r, ok)
	}
}

// composedRankDisplace is the reference form of RankDisplace: CoordOf,
// then Displace, then RankOf, allocating two vectors on the way.
func composedRankDisplace(g *Grid, rank int, rel Vec) (int, bool) {
	dst, ok := g.Displace(g.CoordOf(rank), rel)
	if !ok {
		return -1, false
	}
	r, err := g.RankOf(dst)
	if err != nil {
		return -1, false
	}
	return r, true
}

// TestRankDisplaceMatchesComposition: the digit-by-digit RankDisplace and
// RankDisplaceNeg agree with the vector composition on random grids of
// 1–4 dimensions — tori, meshes and mixed — for every rank, with offsets
// that wrap several times around an extent, fall off a mesh on either
// side, or are zero.
func TestRankDisplaceMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		dims := make([]int, d)
		periods := make([]bool, d)
		for i := range dims {
			dims[i] = 1 + rng.Intn(5)
			periods[i] = rng.Intn(3) > 0
		}
		g, err := NewGrid(dims, periods)
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < g.Size(); rank++ {
			rel := make(Vec, d)
			if rng.Intn(6) > 0 {
				for i := range rel {
					rel[i] = rng.Intn(4*dims[i]+1) - 2*dims[i]
				}
			}
			gotR, gotOK := g.RankDisplace(rank, rel)
			wantR, wantOK := composedRankDisplace(g, rank, rel)
			if gotR != wantR || gotOK != wantOK {
				t.Fatalf("grid %v periods %v: RankDisplace(%d, %v) = %d, %v; composition gives %d, %v",
					dims, periods, rank, rel, gotR, gotOK, wantR, wantOK)
			}
			gotR, gotOK = g.RankDisplaceNeg(rank, rel)
			wantR, wantOK = composedRankDisplace(g, rank, rel.Neg())
			if gotR != wantR || gotOK != wantOK {
				t.Fatalf("grid %v periods %v: RankDisplaceNeg(%d, %v) = %d, %v; composition gives %d, %v",
					dims, periods, rank, rel, gotR, gotOK, wantR, wantOK)
			}
		}
	}
}

// TestRankDisplaceAllocationFree: both displacement forms allocate
// nothing, on a torus and off the edge of a mesh.
func TestRankDisplaceAllocationFree(t *testing.T) {
	torus, _ := NewGrid([]int{3, 4, 5}, nil)
	mesh, _ := NewGrid([]int{3, 4, 5}, []bool{false, true, false})
	rel := Vec{-4, 9, 1}
	allocs := testing.AllocsPerRun(100, func() {
		torus.RankDisplace(17, rel)
		torus.RankDisplaceNeg(17, rel)
		mesh.RankDisplace(17, rel)
		mesh.RankDisplaceNeg(59, Vec{0, 1, 0})
	})
	if allocs != 0 {
		t.Errorf("RankDisplace allocates: %.1f allocs/op", allocs)
	}
}

// TestNeighborhoodOneBackingArray: Stencil and Clone hold their t offsets
// in one backing array (two allocations whatever t is), yet each offset
// stays independent — capped at its length, so an append reallocates
// instead of overwriting the next offset.
func TestNeighborhoodOneBackingArray(t *testing.T) {
	moore, _ := Moore(3, 1)
	if a := testing.AllocsPerRun(20, func() { _, _ = Moore(3, 1) }); a != 2 {
		t.Errorf("Moore(3, 1) makes %.0f allocations, want 2", a)
	}
	if a := testing.AllocsPerRun(20, func() { _ = moore.Clone() }); a != 2 {
		t.Errorf("Clone of 27 offsets makes %.0f allocations, want 2", a)
	}
	c := moore.Clone()
	if !c.Equal(moore) {
		t.Fatalf("clone differs: %v vs %v", c, moore)
	}
	grown := append(c[0], 42)
	if !c[1].Equal(moore[1]) || grown[3] != 42 {
		t.Errorf("append to offset 0 wrote into offset 1: %v", c[1])
	}
	c[2][0] = 99
	if moore[2][0] == 99 || !c[3].Equal(moore[3]) {
		t.Errorf("clone aliases the original or a neighbor offset")
	}
}

// The shift identity underlying deadlock freedom (Section 3 of the paper):
// if process R sends to R+N[i], then R is the source of its own target's
// i-th receive: (R + N[i]) - N[i] = R.
func TestDisplaceShiftIdentity(t *testing.T) {
	g, _ := NewGrid([]int{3, 5, 2}, nil)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		r := rng.Intn(g.Size())
		rel := Vec{rng.Intn(9) - 4, rng.Intn(9) - 4, rng.Intn(9) - 4}
		tgt, ok := g.RankDisplace(r, rel)
		if !ok {
			t.Fatal("torus displacement failed")
		}
		back, ok := g.RankDisplace(tgt, rel.Neg())
		if !ok || back != r {
			t.Fatalf("shift identity violated: %d --%v--> %d --neg--> %d", r, rel, tgt, back)
		}
	}
}

func TestDimsCreate(t *testing.T) {
	cases := []struct {
		p, d int
		want []int
	}{
		{60, 3, []int{5, 4, 3}},
		{1024, 5, []int{4, 4, 4, 4, 4}},
		{64, 3, []int{4, 4, 4}},
		{7, 2, []int{7, 1}},
		{1, 4, []int{1, 1, 1, 1}},
	}
	for _, c := range cases {
		got, err := DimsCreate(c.p, c.d)
		if err != nil {
			t.Fatalf("DimsCreate(%d,%d): %v", c.p, c.d, err)
		}
		prod := 1
		for _, x := range got {
			prod *= x
		}
		if prod != c.p {
			t.Errorf("DimsCreate(%d,%d) = %v, product %d", c.p, c.d, got, prod)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("DimsCreate(%d,%d) = %v, want %v", c.p, c.d, got, c.want)
		}
	}
	if _, err := DimsCreate(0, 3); err == nil {
		t.Error("DimsCreate(0,3) succeeded")
	}
}

func TestDimsCreateProductProperty(t *testing.T) {
	f := func(pRaw, dRaw uint8) bool {
		p := int(pRaw)%500 + 1
		d := int(dRaw)%6 + 1
		dims, err := DimsCreate(p, d)
		if err != nil {
			return false
		}
		prod := 1
		for i, x := range dims {
			prod *= x
			if i > 0 && dims[i-1] < x {
				return false // must be non-increasing
			}
		}
		return prod == p && len(dims) == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBucketSortByCoordStable(t *testing.T) {
	ns := []Vec{{2, 0}, {-1, 1}, {2, 2}, {0, 3}, {-1, 4}, {0, 5}}
	order := BucketSortByCoord(ns, 0)
	// Sorted by coordinate 0: -1 (indices 1,4), 0 (3,5), 2 (0,2) — stable.
	want := []int{1, 4, 3, 5, 0, 2}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestBucketSortByCoordSparseFallback(t *testing.T) {
	// Coordinates spread out far beyond 4t+16 force the comparison path.
	ns := []Vec{{100000}, {-100000}, {0}, {100000}, {5}}
	order := BucketSortByCoord(ns, 0)
	want := []int{1, 2, 4, 0, 3}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestBucketSortByCoordProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		t0 := rng.Intn(50) + 1
		d := rng.Intn(4) + 1
		k := rng.Intn(d)
		ns := make([]Vec, t0)
		for i := range ns {
			ns[i] = make(Vec, d)
			for j := range ns[i] {
				ns[i][j] = rng.Intn(11) - 5
			}
		}
		order := BucketSortByCoord(ns, k)
		if len(order) != t0 {
			t.Fatalf("order length %d != %d", len(order), t0)
		}
		seen := make([]bool, t0)
		for pos, idx := range order {
			if idx < 0 || idx >= t0 || seen[idx] {
				t.Fatalf("order is not a permutation: %v", order)
			}
			seen[idx] = true
			if pos > 0 {
				prev, cur := order[pos-1], idx
				if ns[prev][k] > ns[cur][k] {
					t.Fatalf("not sorted at %d: %v", pos, order)
				}
				if ns[prev][k] == ns[cur][k] && prev > cur {
					t.Fatalf("not stable at %d: %v", pos, order)
				}
			}
		}
	}
}

func TestCountDistinctNonZero(t *testing.T) {
	ns := []Vec{{0, 1}, {1, 1}, {-1, 0}, {1, 2}, {0, 0}}
	if got := CountDistinctNonZero(ns, 0); got != 2 {
		t.Errorf("C_0 = %d, want 2", got)
	}
	if got := CountDistinctNonZero(ns, 1); got != 2 {
		t.Errorf("C_1 = %d, want 2", got)
	}
}

func TestStencilFamilySizes(t *testing.T) {
	for _, d := range []int{2, 3, 4, 5} {
		for _, n := range []int{3, 4, 5} {
			ns, err := Stencil(d, n, -1)
			if err != nil {
				t.Fatal(err)
			}
			want := 1
			for i := 0; i < d; i++ {
				want *= n
			}
			if len(ns) != want {
				t.Errorf("Stencil(%d,%d,-1): %d vectors, want %d", d, n, len(ns), want)
			}
			if !ns.HasZero() {
				t.Errorf("Stencil(%d,%d,-1) missing zero vector", d, n)
			}
			for _, v := range ns {
				for _, x := range v {
					if x < -1 || x > n-2 {
						t.Fatalf("Stencil(%d,%d,-1) coordinate %v out of range", d, n, v)
					}
				}
			}
		}
	}
}

func TestStencilMatchesPaperExample(t *testing.T) {
	// d=2, n=3, f=-1 is the 9-point Moore neighborhood listed in §4.1.1.
	ns, err := Stencil(2, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := Neighborhood{
		{-1, -1}, {-1, 0}, {-1, 1},
		{0, -1}, {0, 0}, {0, 1},
		{1, -1}, {1, 0}, {1, 1},
	}
	if !ns.Equal(want) {
		t.Fatalf("Stencil(2,3,-1) = %v, want %v", ns, want)
	}
	// n=4 adds offsets reaching +2 and keeps f=-1 (asymmetric, non-Moore).
	ns4, _ := Stencil(2, 4, -1)
	if len(ns4) != 16 {
		t.Fatalf("Stencil(2,4,-1) has %d vectors", len(ns4))
	}
	hasTwoTwo := false
	for _, v := range ns4 {
		if v.Equal(Vec{2, 2}) {
			hasTwoTwo = true
		}
	}
	if !hasTwoTwo {
		t.Error("Stencil(2,4,-1) missing (2,2)")
	}
}

func TestMooreAndVonNeumann(t *testing.T) {
	m, err := Moore(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 27 {
		t.Errorf("Moore(3,1) size %d, want 27", len(m))
	}
	vn, err := VonNeumann(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(vn) != 5 {
		t.Errorf("VonNeumann(2,1) size %d, want 5", len(vn))
	}
	vn2, _ := VonNeumann(3, 2)
	// |{v in {-2..2}^3 : |v|_1 <= 2}| = 1 + 6 + (6 + 12) = 25.
	if len(vn2) != 25 {
		t.Errorf("VonNeumann(3,2) size %d, want 25", len(vn2))
	}
}

func TestStar(t *testing.T) {
	s, err := Star(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2*3*2+1 {
		t.Errorf("Star(3,2) size %d, want 13", len(s))
	}
	if !s.HasZero() {
		t.Error("Star missing zero offset")
	}
	for _, v := range s {
		if v.NonZeros() > 1 {
			t.Errorf("Star offset %v has multiple non-zeros", v)
		}
	}
	if _, err := Star(0, 1); err == nil {
		t.Error("Star(0,1) accepted")
	}
	if _, err := Star(2, 0); err == nil {
		t.Error("Star(2,0) accepted")
	}
}

func TestNeighborhoodFlattenRoundTrip(t *testing.T) {
	ns, _ := Stencil(3, 3, -1)
	flat := ns.Flatten()
	if len(flat) != 27*3 {
		t.Fatalf("flat length %d", len(flat))
	}
	back, err := Unflatten(flat, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(ns) {
		t.Fatal("Unflatten(Flatten(ns)) != ns")
	}
	if _, err := Unflatten([]int{1, 2, 3}, 2); err == nil {
		t.Error("Unflatten with bad length succeeded")
	}
	if _, err := Unflatten([]int{1, 2}, 0); err == nil {
		t.Error("Unflatten with d=0 succeeded")
	}
}

func TestNeighborhoodEqualAndCanonical(t *testing.T) {
	a := Neighborhood{{0, 1}, {1, 0}, {1, 1}}
	b := Neighborhood{{1, 1}, {0, 1}, {1, 0}}
	if a.Equal(b) {
		t.Error("order-sensitive Equal matched permuted lists")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Equal failed on a copy")
	}
}

func TestNeighborhoodHelpers(t *testing.T) {
	ns := Neighborhood{{0, 0}, {1, 0}, {0, 0}, {0, -1}}
	if !ns.HasZero() {
		t.Error("HasZero false")
	}
	if ns.Dims() != 2 {
		t.Errorf("Dims = %d", ns.Dims())
	}
	if (Neighborhood{}).Dims() != 0 {
		t.Error("empty Dims != 0")
	}
	if err := ns.Validate(2); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := ns.Validate(3); err == nil {
		t.Error("Validate accepted wrong dimension")
	}
	if err := (Neighborhood{}).Validate(2); err == nil {
		t.Error("Validate accepted empty neighborhood")
	}
}

func TestNeighborhoodUnionDedup(t *testing.T) {
	a := Neighborhood{{0, 1}, {1, 0}}
	b := Neighborhood{{1, 0}, {1, 1}}
	u := append(a.Clone(), b...)
	d := u.Dedup()
	if len(d) != 3 {
		t.Fatalf("Dedup size %d: %v", len(d), d)
	}
	if !d.Equal(Neighborhood{{0, 1}, {1, 0}, {1, 1}}) {
		t.Errorf("Dedup order: %v", d)
	}
	// Composite stencil: star ∪ diagonal corners = 9-point Moore.
	star, _ := VonNeumann(2, 1)
	corners := Neighborhood{{-1, -1}, {-1, 1}, {1, -1}, {1, 1}}
	moore, _ := Moore(2, 1)
	composite := append(star.Clone(), corners...).Dedup()
	SortLex(composite)
	SortLex(moore)
	if !composite.Equal(moore) {
		t.Error("star ∪ corners != Moore")
	}
}
