package vec

import "fmt"

// Neighborhood is an ordered list of relative coordinate offsets, the
// t-neighborhood of the paper. Repetitions are allowed; the zero vector, if
// present, makes a process a neighbor of itself. Order is significant: data
// blocks in the collective operations are stored in neighbor order.
type Neighborhood []Vec

// Clone returns a deep copy of the neighborhood. The copied offsets share
// one backing array (two allocations, not t+1); each is capped at its own
// length, so appending to one never writes into the next.
func (n Neighborhood) Clone() Neighborhood {
	size := 0
	for _, v := range n {
		size += len(v)
	}
	m := make(Neighborhood, len(n))
	backing := make([]int, size)
	for i, v := range n {
		w := backing[:len(v):len(v)]
		copy(w, v)
		m[i] = w
		backing = backing[len(v):]
	}
	return m
}

// Validate checks that all offsets have dimension d.
func (n Neighborhood) Validate(d int) error {
	if len(n) == 0 {
		return fmt.Errorf("vec: empty neighborhood")
	}
	for i, v := range n {
		if len(v) != d {
			return fmt.Errorf("vec: neighbor %d has %d coordinates, want %d", i, len(v), d)
		}
	}
	return nil
}

// Equal reports whether two neighborhoods are identical element-wise,
// including order. This is the isomorphism condition of the paper: all
// processes must pass the exact same list of relative coordinates.
func (n Neighborhood) Equal(m Neighborhood) bool {
	if len(n) != len(m) {
		return false
	}
	for i := range n {
		if !n[i].Equal(m[i]) {
			return false
		}
	}
	return true
}

// CanonicalEqual reports whether two neighborhoods are equal as multisets,
// i.e. identical after lexicographic sorting. Section 2.2 of the paper uses
// this weaker check ("identical to the neighborhood of the root in some
// sorted order") when auto-detecting Cartesian neighborhoods from a
// distributed graph.
func (n Neighborhood) CanonicalEqual(m Neighborhood) bool {
	if len(n) != len(m) {
		return false
	}
	a, b := n.Clone(), m.Clone()
	SortLex(a)
	SortLex(b)
	return Neighborhood(a).Equal(Neighborhood(b))
}

// Flatten serializes the neighborhood into a flat []int of length t*d,
// the wire/argument format of Cart_neighborhood_create (Listing 1).
func (n Neighborhood) Flatten() []int {
	if len(n) == 0 {
		return nil
	}
	d := len(n[0])
	out := make([]int, 0, len(n)*d)
	for _, v := range n {
		out = append(out, v...)
	}
	return out
}

// Unflatten parses a flat []int of length t*d into a neighborhood of t
// d-dimensional offsets, the inverse of Flatten.
func Unflatten(flat []int, d int) (Neighborhood, error) {
	if d <= 0 {
		return nil, fmt.Errorf("vec: non-positive dimension %d", d)
	}
	if len(flat)%d != 0 {
		return nil, fmt.Errorf("vec: flat neighborhood length %d is not a multiple of d=%d", len(flat), d)
	}
	t := len(flat) / d
	n := make(Neighborhood, t)
	for i := 0; i < t; i++ {
		n[i] = Vec(append([]int(nil), flat[i*d:(i+1)*d]...))
	}
	return n, nil
}

// Stencil generates the (d, n, f) neighborhood family of the paper's
// evaluation (Section 4.1.1): all n^d vectors whose every coordinate lies in
// {f, f+1, ..., f+n-1}, in row-major order of the coordinate values. With
// n = 3, f = -1 this is the Moore neighborhood (3^d-point stencil); with
// n = 4 or 5 and f = -1 the neighborhood becomes asymmetric. The zero vector
// (the process itself) is included whenever f <= 0 < f+n, matching the
// paper's t = n^d accounting.
func Stencil(d, n, f int) (Neighborhood, error) {
	if d <= 0 || n <= 0 {
		return nil, fmt.Errorf("vec: Stencil requires positive d and n, got d=%d n=%d", d, n)
	}
	t := 1
	for i := 0; i < d; i++ {
		t *= n
	}
	// All t offsets live in one backing array, each capped at d.
	ns := make(Neighborhood, t)
	backing := make([]int, t*d)
	cur := backing[:d:d]
	for i := range cur {
		cur[i] = f
	}
	for i := 1; i < t; i++ {
		ns[i-1] = cur
		next := backing[i*d : (i+1)*d : (i+1)*d]
		copy(next, cur)
		// Row-major increment with carry, last coordinate fastest.
		for k := d - 1; k >= 0; k-- {
			next[k]++
			if next[k] < f+n {
				break
			}
			next[k] = f
		}
		cur = next
	}
	ns[t-1] = cur
	return ns, nil
}

// Moore generates the Moore neighborhood of radius r in d dimensions: all
// (2r+1)^d vectors with every coordinate in [-r, r], including the zero
// vector. Moore(d, 1) is the 3^d-point stencil.
func Moore(d, r int) (Neighborhood, error) {
	return Stencil(d, 2*r+1, -r)
}

// VonNeumann generates the von Neumann neighborhood of radius r in d
// dimensions: all vectors whose L1 norm is at most r, including the zero
// vector. VonNeumann(d, 1) is the classic (2d+1)-point stencil and, minus
// the zero vector, is exactly the default neighborhood of an MPI Cartesian
// communicator.
func VonNeumann(d, r int) (Neighborhood, error) {
	full, err := Moore(d, r)
	if err != nil {
		return nil, err
	}
	var ns Neighborhood
	for _, v := range full {
		l1 := 0
		for _, x := range v {
			if x < 0 {
				l1 -= x
			} else {
				l1 += x
			}
		}
		if l1 <= r {
			ns = append(ns, v)
		}
	}
	return ns, nil
}

// Star generates the star (axis) neighborhood of radius r in d dimensions:
// the zero vector plus all offsets k·e_i with 1 <= |k| <= r — the
// (2dr+1)-point stencils of higher-order finite-difference schemes (the
// paper's references [1, 12] motivate such shapes). Unlike the Moore
// family, every offset has exactly one non-zero coordinate, so the
// message-combining alltoall volume equals the trivial volume and
// combining wins at every block size.
func Star(d, r int) (Neighborhood, error) {
	if d <= 0 || r <= 0 {
		return nil, fmt.Errorf("vec: Star requires positive d and r, got d=%d r=%d", d, r)
	}
	ns := Neighborhood{make(Vec, d)}
	for i := 0; i < d; i++ {
		for k := -r; k <= r; k++ {
			if k == 0 {
				continue
			}
			v := make(Vec, d)
			v[i] = k
			ns = append(ns, v)
		}
	}
	return ns, nil
}

// Translate returns the neighborhood with offset added to every vector —
// e.g. shifting a symmetric stencil into the paper's asymmetric (f ≠ −1)
// families.
func (n Neighborhood) Translate(offset Vec) Neighborhood {
	out := make(Neighborhood, len(n))
	for i, v := range n {
		out[i] = v.Add(offset)
	}
	return out
}

// Scale returns the neighborhood with every coordinate multiplied by
// factor — dilated stencils (a radius-1 star scaled by r touches the same
// processes as the axis points of a radius-r star).
func (n Neighborhood) Scale(factor int) Neighborhood {
	out := make(Neighborhood, len(n))
	for i, v := range n {
		w := make(Vec, len(v))
		for j, x := range v {
			w[j] = x * factor
		}
		out[i] = w
	}
	return out
}

// Mirror returns the neighborhood with every offset negated: the source
// view of a target neighborhood (and vice versa). For symmetric stencils
// it is a permutation of the original.
func (n Neighborhood) Mirror() Neighborhood {
	out := make(Neighborhood, len(n))
	for i, v := range n {
		out[i] = v.Neg()
	}
	return out
}

// Union concatenates two neighborhoods (multiset union; order preserved).
// Combine with Dedup to build composite stencils without repetitions.
func (n Neighborhood) Union(m Neighborhood) Neighborhood {
	out := make(Neighborhood, 0, len(n)+len(m))
	out = append(out, n.Clone()...)
	out = append(out, m.Clone()...)
	return out
}

// Dedup returns the neighborhood with repeated offsets removed, keeping
// first occurrences in order.
func (n Neighborhood) Dedup() Neighborhood {
	seen := make(map[string]struct{}, len(n))
	var out Neighborhood
	for _, v := range n {
		k := v.String()
		if _, ok := seen[k]; ok {
			continue
		}
		seen[k] = struct{}{}
		out = append(out, v.Clone())
	}
	return out
}

// WithoutZero returns a copy of the neighborhood with all zero vectors
// removed (the pure communication part of a stencil).
func (n Neighborhood) WithoutZero() Neighborhood {
	var out Neighborhood
	for _, v := range n {
		if !v.IsZero() {
			out = append(out, v.Clone())
		}
	}
	return out
}

// HasZero reports whether the zero vector occurs in the neighborhood.
func (n Neighborhood) HasZero() bool {
	for _, v := range n {
		if v.IsZero() {
			return true
		}
	}
	return false
}

// Dims returns the dimensionality d of the neighborhood (0 if empty).
func (n Neighborhood) Dims() int {
	if len(n) == 0 {
		return 0
	}
	return len(n[0])
}
