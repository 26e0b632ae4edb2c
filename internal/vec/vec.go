// Package vec provides d-dimensional integer coordinate vectors and the
// mixed-radix geometry of Cartesian process grids (meshes and tori).
//
// It is the arithmetic substrate underneath the Cartesian Collective
// Communication library: rank/coordinate conversion, periodic (torus) and
// bounded (mesh) wrapping, stable bucket sorting of neighborhoods by a
// chosen coordinate (the O(t)-per-phase primitive of Algorithms 1 and 2 of
// the paper), and generators for the stencil neighborhood families used in
// the paper's evaluation.
package vec

import (
	"fmt"
	"sort"
)

// Vec is a d-dimensional integer coordinate vector. A Vec is used both for
// absolute process coordinates (each component in [0, dims[i])) and for
// relative neighbor offsets (arbitrary integers, positive or negative).
type Vec []int

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// Equal reports whether v and w have the same length and components.
func (v Vec) Equal(w Vec) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every component of v is zero. The zero vector
// denotes the process itself in a relative neighborhood.
func (v Vec) IsZero() bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// NonZeros returns the number of non-zero components of v. In the paper's
// notation this is z_i, the number of hops a data block for neighbor N[i]
// travels under dimension-wise path expansion.
func (v Vec) NonZeros() int {
	z := 0
	for _, x := range v {
		if x != 0 {
			z++
		}
	}
	return z
}

// Add returns the component-wise sum v + w.
func (v Vec) Add(w Vec) Vec {
	u := make(Vec, len(v))
	for i := range v {
		u[i] = v[i] + w[i]
	}
	return u
}

// Sub returns the component-wise difference v - w.
func (v Vec) Sub(w Vec) Vec {
	u := make(Vec, len(v))
	for i := range v {
		u[i] = v[i] - w[i]
	}
	return u
}

// Neg returns the component-wise negation of v. If v is the relative offset
// of a target neighbor, Neg(v) is the offset of the matching source.
func (v Vec) Neg() Vec {
	u := make(Vec, len(v))
	for i := range v {
		u[i] = -v[i]
	}
	return u
}

// Axis returns the vector that is zero everywhere except at coordinate k,
// where it equals v[k]. In the paper's notation this is N[i]_k^0, the basis
// step taken in phase k of the message-combining schedules.
func (v Vec) Axis(k int) Vec {
	u := make(Vec, len(v))
	u[k] = v[k]
	return u
}

// String renders v as "(a,b,...)".
func (v Vec) String() string {
	s := "("
	for i, x := range v {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(x)
	}
	return s + ")"
}

// Less is a lexicographic ordering on equal-length vectors, used to bring a
// neighborhood into the canonical sorted order exchanged during the
// isomorphism check of Section 2.2 of the paper.
func (v Vec) Less(w Vec) bool {
	for i := range v {
		if v[i] != w[i] {
			return v[i] < w[i]
		}
	}
	return false
}

// SortLex sorts a list of vectors lexicographically in place.
func SortLex(vs []Vec) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Less(vs[j]) })
}

// mod returns the mathematical modulus a mod m, always in [0, m).
func mod(a, m int) int {
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Grid describes the geometry of a d-dimensional process mesh or torus with
// per-dimension extents Dims and periodicity flags Periods. All ranks are
// numbered in row-major order: the last dimension varies fastest, exactly as
// in MPI Cartesian topologies.
type Grid struct {
	Dims    []int
	Periods []bool
}

// NewGrid validates the dimension extents and periodicity flags and returns
// the grid geometry. Every extent must be positive and len(periods) must
// equal len(dims) (or be nil, meaning fully periodic: a torus).
func NewGrid(dims []int, periods []bool) (*Grid, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("vec: grid needs at least one dimension")
	}
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("vec: dimension %d has non-positive extent %d", i, d)
		}
	}
	if periods == nil {
		periods = make([]bool, len(dims))
		for i := range periods {
			periods[i] = true
		}
	}
	if len(periods) != len(dims) {
		return nil, fmt.Errorf("vec: %d periodicity flags for %d dimensions", len(periods), len(dims))
	}
	g := &Grid{
		Dims:    append([]int(nil), dims...),
		Periods: append([]bool(nil), periods...),
	}
	return g, nil
}

// NDims returns the number of dimensions d of the grid.
func (g *Grid) NDims() int { return len(g.Dims) }

// Size returns the total number of processes, the product of all extents.
func (g *Grid) Size() int {
	p := 1
	for _, d := range g.Dims {
		p *= d
	}
	return p
}

// CoordOf returns the coordinate vector of the given rank (row-major,
// last dimension fastest). Rank must be in [0, Size()).
func (g *Grid) CoordOf(rank int) Vec {
	c := make(Vec, len(g.Dims))
	for i := len(g.Dims) - 1; i >= 0; i-- {
		c[i] = rank % g.Dims[i]
		rank /= g.Dims[i]
	}
	return c
}

// RankOf returns the rank of the given absolute coordinate vector. Every
// component must lie in [0, Dims[i]); use Displace to apply relative offsets
// with wrapping first.
func (g *Grid) RankOf(c Vec) (int, error) {
	if len(c) != len(g.Dims) {
		return -1, fmt.Errorf("vec: coordinate has %d components, grid has %d dimensions", len(c), len(g.Dims))
	}
	r := 0
	for i, x := range c {
		if x < 0 || x >= g.Dims[i] {
			return -1, fmt.Errorf("vec: coordinate %v out of range in dimension %d (extent %d)", c, i, g.Dims[i])
		}
		r = r*g.Dims[i] + x
	}
	return r, nil
}

// Displace applies the relative offset rel to the absolute coordinate c.
// Along periodic dimensions the result wraps modulo the extent. Along
// non-periodic (mesh) dimensions an offset that leaves the grid yields
// ok == false, mirroring MPI_PROC_NULL semantics for meshes.
func (g *Grid) Displace(c, rel Vec) (dst Vec, ok bool) {
	dst = make(Vec, len(g.Dims))
	for i := range g.Dims {
		x := c[i] + rel[i]
		if g.Periods[i] {
			x = mod(x, g.Dims[i])
		} else if x < 0 || x >= g.Dims[i] {
			return nil, false
		}
		dst[i] = x
	}
	return dst, true
}

// RankDisplace is CoordOf, Displace and RankOf composed: the rank reached
// from rank by relative offset rel, with ok == false if the displacement
// falls off a non-periodic mesh. It works digit by digit and allocates
// nothing.
func (g *Grid) RankDisplace(rank int, rel Vec) (int, bool) {
	return g.rankDisplace(rank, rel, 1)
}

// RankDisplaceNeg is RankDisplace by −rel: the rank that reaches rank by
// offset rel (the source of a target offset), without building rel.Neg().
func (g *Grid) RankDisplaceNeg(rank int, rel Vec) (int, bool) {
	return g.rankDisplace(rank, rel, -1)
}

// rankDisplace displaces rank by sign·rel one mixed-radix digit at a time,
// last dimension first.
func (g *Grid) rankDisplace(rank int, rel Vec, sign int) (int, bool) {
	r, stride := 0, 1
	for i := len(g.Dims) - 1; i >= 0; i-- {
		n := g.Dims[i]
		x := rank%n + sign*rel[i]
		rank /= n
		if g.Periods[i] {
			x = mod(x, n)
		} else if x < 0 || x >= n {
			return -1, false
		}
		r += x * stride
		stride *= n
	}
	return r, true
}

// DimsCreate factors p into d balanced extents, largest first, in the manner
// of MPI_Dims_create: the extents multiply to exactly p and are as close to
// each other as a greedy prime-factor distribution allows.
func DimsCreate(p, d int) ([]int, error) {
	if p <= 0 || d <= 0 {
		return nil, fmt.Errorf("vec: DimsCreate requires positive p and d, got p=%d d=%d", p, d)
	}
	dims := make([]int, d)
	for i := range dims {
		dims[i] = 1
	}
	// Distribute prime factors of p, largest factor to currently smallest dim.
	factors := primeFactors(p)
	// Largest prime factors first so they land on distinct dimensions.
	sort.Sort(sort.Reverse(sort.IntSlice(factors)))
	for _, f := range factors {
		small := 0
		for i := 1; i < d; i++ {
			if dims[i] < dims[small] {
				small = i
			}
		}
		dims[small] *= f
	}
	sort.Sort(sort.Reverse(sort.IntSlice(dims)))
	return dims, nil
}

// primeFactors returns the multiset of prime factors of p (p >= 1).
func primeFactors(p int) []int {
	var fs []int
	for f := 2; f*f <= p; f++ {
		for p%f == 0 {
			fs = append(fs, f)
			p /= f
		}
	}
	if p > 1 {
		fs = append(fs, p)
	}
	return fs
}

// BucketSortByCoord stably sorts the index set {0,...,len(ns)-1} of the
// neighborhood ns by the k-th coordinate of each vector and returns the
// permutation ("order" in Algorithm 1 of the paper). The sort runs in
// O(t + range) time using counting buckets over the k-th coordinate range,
// which is O(t) when coordinates are bounded; this is the primitive that
// makes the whole schedule computation O(td).
func BucketSortByCoord(ns []Vec, k int) []int {
	t := len(ns)
	order := make([]int, t)
	if t == 0 {
		return order
	}
	lo, hi := ns[0][k], ns[0][k]
	for _, n := range ns {
		if n[k] < lo {
			lo = n[k]
		}
		if n[k] > hi {
			hi = n[k]
		}
	}
	span := hi - lo + 1
	if span > 4*t+16 {
		// Degenerate, very spread-out coordinates: fall back to a stable
		// comparison sort to keep memory proportional to t.
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return ns[order[a]][k] < ns[order[b]][k] })
		return order
	}
	count := make([]int, span+1)
	for _, n := range ns {
		count[n[k]-lo+1]++
	}
	for i := 1; i <= span; i++ {
		count[i] += count[i-1]
	}
	for i, n := range ns {
		b := n[k] - lo
		order[count[b]] = i
		count[b]++
	}
	return order
}

// CountDistinctNonZero returns C_k: the number of distinct non-zero k-th
// coordinates occurring in the neighborhood ns (Propositions 3.2 and 3.3).
func CountDistinctNonZero(ns []Vec, k int) int {
	seen := make(map[int]struct{})
	for _, n := range ns {
		if n[k] != 0 {
			seen[n[k]] = struct{}{}
		}
	}
	return len(seen)
}
