// Package cart implements Cartesian Collective Communication (Träff &
// Hunold, ICPP 2019): sparse collective alltoall and allgather operations
// over processes organized in a d-dimensional torus or mesh, with
// neighborhoods given as lists of relative coordinate offsets that are
// identical (isomorphic) on every process.
//
// The isomorphism requirement lets every process compute the same correct,
// deadlock-free communication schedule locally in O(td) time. Two schedule
// families are provided: the trivial t-round algorithm (Listing 4 of the
// paper) and the message-combining algorithms (Algorithms 1 and 2) that
// route blocks dimension-wise through intermediate processes, reducing the
// number of communication rounds from t to C = Σ_k C_k at the price of a
// higher communication volume — a trade that wins whenever blocks are small
// enough that per-message latency dominates.
package cart

import (
	"fmt"

	"cartcc/internal/mpi"
	"cartcc/internal/vec"
)

// Algorithm selects the schedule family used by the collective operations.
type Algorithm int

const (
	// Combining uses the message-combining schedules of Algorithms 1 and 2
	// (d communication phases, C rounds). Requires a fully periodic torus.
	Combining Algorithm = iota
	// Trivial uses the t-round send-receive schedule of Listing 4.
	Trivial
	// Auto chooses per operation at first execution using the
	// executor-consistent crossover of select.go, with machine constants
	// from the run's cost model, an installed tune.Machine profile, or
	// the built-in defaults — in that order.
	Auto
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Combining:
		return "combining"
	case Trivial:
		return "trivial"
	case Auto:
		return "auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Comm is a Cartesian-neighborhood communicator: an MPI-style communicator
// with a d-dimensional grid, an isomorphic t-neighborhood, and precomputed
// neighbor ranks and schedule structure. It is created collectively by
// NeighborhoodCreate (the paper's Cart_neighborhood_create, Listing 1).
type Comm struct {
	comm *mpi.Comm
	grid *vec.Grid
	nbh  vec.Neighborhood
	// targets[i] is the rank of target neighbor i (R + N[i]); -1 when the
	// displacement leaves a non-periodic mesh (MPI_PROC_NULL).
	targets []int
	// sources[i] is the rank of source neighbor i (R − N[i]); -1 as above.
	sources []int
	weights []int
	algo    Algorithm

	// Cached symbolic schedules (neighborhood structure only, block-size
	// independent — Section 3.3 of the paper; on a grid with a boundary,
	// this rank's own).
	alltoallSched  *Schedule
	allgatherSched *Schedule

	// Cached executable plans for the regular operations, keyed by
	// (operation, algorithm, block size).
	plans map[planKey]*Plan

	// cmet caches the cart-layer metric handles of this rank's registry
	// set once per communicator (nil when metrics are off), shared by
	// every plan bound to it.
	cmet *cartMetrics
	// flatNbh, shapeHash and nbhHash are the precomputed fingerprint
	// inputs of the shared plan cache (plancache.go): the flattened
	// ordered offsets, and FNV hashes of (dims, periods) and of the
	// offsets.
	flatNbh   []int
	shapeHash uint64
	nbhHash   uint64

	// eng is the communicator's progress engine (engine.go), created
	// lazily at the first Start.
	eng *engine
}

type planKey struct {
	op   OpKind
	algo Algorithm
	m    int
}

// Option configures NeighborhoodCreate.
type Option func(*options)

type options struct {
	algo    Algorithm
	reorder bool
}

// WithAlgorithm sets the default schedule family for the communicator's
// collective operations. The default is Auto.
func WithAlgorithm(a Algorithm) Option {
	return func(o *options) { o.algo = a }
}

// WithReorder requests topology-aware rank reordering (the paper's reorder
// flag). Unlike the MPI libraries the paper examined — which accept the
// flag but keep the identity mapping — this implementation renumbers ranks
// when the run's cost model declares a node hierarchy: the torus is tiled
// into node-sized subgrid blocks so that stencil neighbors co-locate
// (reorder.go). Without a hierarchical model, or when the grid cannot be
// tiled, the mapping stays the identity.
func WithReorder() Option {
	return func(o *options) { o.reorder = true }
}

// reorderPermutation decides the rank renumbering for NeighborhoodCreate:
// nil keeps the identity. With weights (or any neighborhood) the block
// shape is chosen by searching all node-tile factorizations for the best
// weighted intra-node traffic fraction; the search is deterministic from
// shared data, so all processes agree.
func reorderPermutation(base *mpi.Comm, grid *vec.Grid, nbh vec.Neighborhood, weights []int, reorder bool) []int {
	if !reorder {
		return nil
	}
	model := base.Model()
	if model == nil || model.Hierarchy == nil {
		return nil
	}
	perm, ok := BestBlockedPermutation(grid, model.Hierarchy.CoresPerNode, nbh, weights)
	if !ok {
		return nil
	}
	return perm
}

// NeighborhoodCreate creates a Cartesian-neighborhood communicator over
// base: processes are arranged in the torus/mesh given by dims and periods
// (nil periods = fully periodic), and every process declares the same
// ordered list of relative target offsets. weights may be nil
// (unweighted). Collective; every process must pass exactly the same
// dims, periods, neighborhood and weights — the Cartesian (isomorphism)
// requirement. The requirement is verified collectively at creation time
// with the O(t) check of Section 2.2, so a mismatched caller fails here
// rather than corrupting a later collective.
func NeighborhoodCreate(base *mpi.Comm, dims []int, periods []bool, neighborhood vec.Neighborhood, weights []int, opts ...Option) (*Comm, error) {
	var o options
	o.algo = Auto
	for _, opt := range opts {
		opt(&o)
	}
	grid, err := vec.NewGrid(dims, periods)
	if err != nil {
		return nil, err
	}
	if grid.Size() != base.Size() {
		return nil, fmt.Errorf("cart: grid %v has %d processes, communicator has %d", dims, grid.Size(), base.Size())
	}
	if err := neighborhood.Validate(grid.NDims()); err != nil {
		return nil, err
	}
	if weights != nil && len(weights) != len(neighborhood) {
		return nil, fmt.Errorf("cart: %d weights for %d neighbors", len(weights), len(neighborhood))
	}
	if err := verifyIsomorphic(base, grid, neighborhood); err != nil {
		return nil, err
	}
	var comm *mpi.Comm
	if perm := reorderPermutation(base, grid, neighborhood, weights, o.reorder); perm != nil {
		// Topology-aware renumbering: block the torus onto the machine's
		// nodes so stencil neighbors co-locate (see reorder.go). All
		// processes compute the same permutation from shared data.
		comm, err = base.Remap(perm)
	} else {
		comm, err = base.Dup()
	}
	if err != nil {
		return nil, err
	}
	c := &Comm{
		comm:    comm,
		grid:    grid,
		nbh:     neighborhood.Clone(),
		weights: append([]int(nil), weights...),
		algo:    o.algo,
		plans:   make(map[planKey]*Plan),
		cmet:    newCartMetrics(comm.MetricsSet()),
	}
	c.flatNbh = c.nbh.Flatten()
	h := fnvInt(fnvOffset, len(dims))
	for i, dim := range dims {
		h = fnvInt(h, dim)
		p := 0
		if grid.Periods[i] {
			p = 1
		}
		h = fnvInt(h, p)
	}
	c.shapeHash = h
	h = fnvInt(fnvOffset, len(c.flatNbh))
	for _, x := range c.flatNbh {
		h = fnvInt(h, x)
	}
	c.nbhHash = h
	c.targets = make([]int, len(c.nbh))
	c.sources = make([]int, len(c.nbh))
	for i, rel := range c.nbh {
		if r, ok := grid.RankDisplace(comm.Rank(), rel); ok {
			c.targets[i] = r
		} else {
			c.targets[i] = ProcNull
		}
		if r, ok := grid.RankDisplaceNeg(comm.Rank(), rel); ok {
			c.sources[i] = r
		} else {
			c.sources[i] = ProcNull
		}
	}
	return c, nil
}

// NeighborhoodCreateFlat is NeighborhoodCreate with the neighborhood given
// as a flattened t×d offset array, the exact argument convention of the
// paper's Cart_neighborhood_create (Listing 1).
func NeighborhoodCreateFlat(base *mpi.Comm, d int, dims []int, periods []bool, targetRelative []int, weights []int, opts ...Option) (*Comm, error) {
	nbh, err := vec.Unflatten(targetRelative, d)
	if err != nil {
		return nil, err
	}
	return NeighborhoodCreate(base, dims, periods, nbh, weights, opts...)
}

// ProcNull marks a missing neighbor on a non-periodic mesh, like
// MPI_PROC_NULL: communication with it is skipped.
const ProcNull = -1

// verifyIsomorphic performs the O(t) collective check of Section 2.2: the
// root broadcasts its neighborhood size and offsets; every process compares
// against its own. (The paper uses this check to auto-detect Cartesian
// neighborhoods in dist-graph creation; here it also guards the explicit
// constructor against inconsistent callers.)
func verifyIsomorphic(base *mpi.Comm, grid *vec.Grid, nbh vec.Neighborhood) error {
	d := grid.NDims()
	meta := []int{len(nbh)}
	if err := mpi.Bcast(base, meta, 0); err != nil {
		return err
	}
	var detail error
	if meta[0] != len(nbh) {
		detail = fmt.Errorf("cart: neighborhood not Cartesian: rank %d has %d neighbors, root has %d", base.Rank(), len(nbh), meta[0])
	}
	flat := make([]int, meta[0]*d)
	if detail == nil {
		copy(flat, nbh.Flatten())
	}
	if err := mpi.Bcast(base, flat, 0); err != nil {
		return err
	}
	if detail == nil {
		mine := nbh.Flatten()
		for i := range flat {
			if flat[i] != mine[i] {
				detail = fmt.Errorf("cart: neighborhood not Cartesian: rank %d differs from root at flat offset %d (%d vs %d)", base.Rank(), i, mine[i], flat[i])
				break
			}
		}
	}
	// Agree collectively so every rank fails together when any rank's list
	// deviates (the root's own list trivially matches itself).
	agree := []int{1}
	if detail != nil {
		agree[0] = 0
	}
	if err := mpi.Allreduce(base, agree, agree, mpi.MinOp[int]); err != nil {
		return err
	}
	if agree[0] == 0 {
		if detail != nil {
			return detail
		}
		return fmt.Errorf("cart: neighborhood not Cartesian: another rank's offset list differs (rank %d's list matches the root)", base.Rank())
	}
	return nil
}

// Rank returns the calling process's rank.
func (c *Comm) Rank() int { return c.comm.Rank() }

// Size returns the number of processes.
func (c *Comm) Size() int { return c.comm.Size() }

// Grid returns the torus/mesh geometry.
func (c *Comm) Grid() *vec.Grid { return c.grid }

// Neighborhood returns the t-neighborhood (shared by all processes). The
// returned slice must not be modified.
func (c *Comm) Neighborhood() vec.Neighborhood { return c.nbh }

// Base returns the underlying point-to-point communicator.
func (c *Comm) Base() *mpi.Comm { return c.comm }

// Coords returns the calling process's Cartesian coordinates.
func (c *Comm) Coords() vec.Vec { return c.grid.CoordOf(c.comm.Rank()) }

// RelativeRank returns the rank of the process at the given relative
// coordinates from the calling process (Cart_relative_rank, Listing 2).
// ok is false when the displacement leaves a non-periodic mesh.
func (c *Comm) RelativeRank(relative vec.Vec) (rank int, ok bool, err error) {
	if len(relative) != c.grid.NDims() {
		return ProcNull, false, fmt.Errorf("cart: relative coordinate arity %d, grid has %d dimensions", len(relative), c.grid.NDims())
	}
	r, ok := c.grid.RankDisplace(c.comm.Rank(), relative)
	if !ok {
		return ProcNull, false, nil
	}
	return r, true, nil
}

// RelativeShift returns, for a relative offset, the rank this process
// receives from (inRank = R − relative) and sends to (outRank =
// R + relative) — Cart_relative_shift of Listing 2, the primitive of the
// trivial algorithm (Listing 4). Missing mesh neighbors are ProcNull.
func (c *Comm) RelativeShift(relative vec.Vec) (inRank, outRank int, err error) {
	if len(relative) != c.grid.NDims() {
		return ProcNull, ProcNull, fmt.Errorf("cart: relative coordinate arity %d, grid has %d dimensions", len(relative), c.grid.NDims())
	}
	outRank = ProcNull
	if r, ok := c.grid.RankDisplace(c.comm.Rank(), relative); ok {
		outRank = r
	}
	inRank = ProcNull
	if r, ok := c.grid.RankDisplaceNeg(c.comm.Rank(), relative); ok {
		inRank = r
	}
	return inRank, outRank, nil
}

// RelativeCoord returns the coordinates of rank relative to the calling
// process (Cart_relative_coord, Listing 2). On a torus each component is
// reduced to the symmetric range (−p_i/2, p_i/2].
func (c *Comm) RelativeCoord(rank int) (vec.Vec, error) {
	if rank < 0 || rank >= c.comm.Size() {
		return nil, fmt.Errorf("cart: rank %d out of range [0,%d)", rank, c.comm.Size())
	}
	mine := c.grid.CoordOf(c.comm.Rank())
	theirs := c.grid.CoordOf(rank)
	rel := theirs.Sub(mine)
	for i := range rel {
		if c.grid.Periods[i] {
			p := c.grid.Dims[i]
			rel[i] = ((rel[i] % p) + p) % p
			if rel[i] > p/2 {
				rel[i] -= p
			}
		}
	}
	return rel, nil
}

// NeighborCount returns t, the number of neighbors
// (Cart_neighbor_count, Listing 2).
func (c *Comm) NeighborCount() int { return len(c.nbh) }

// NeighborGet returns the calling process's source and target neighbor
// ranks in neighborhood order, with their weights (nil when unweighted) —
// Cart_neighbor_get of Listing 2, in exactly the format required by
// MPI_Dist_graph_create_adjacent. Missing mesh neighbors are ProcNull.
// The returned slices are fresh copies.
func (c *Comm) NeighborGet() (sources, sourceWeights, targets, targetWeights []int) {
	sources = append([]int(nil), c.sources...)
	targets = append([]int(nil), c.targets...)
	if c.weights != nil {
		sourceWeights = append([]int(nil), c.weights...)
		targetWeights = append([]int(nil), c.weights...)
	}
	return sources, sourceWeights, targets, targetWeights
}

// Sources returns the source neighbor ranks (R − N[i]); the slice must not
// be modified.
func (c *Comm) Sources() []int { return c.sources }

// IsPeriodic reports whether every dimension is periodic (a torus): then
// every rank compiles the same plan up to its peers.
func (c *Comm) IsPeriodic() bool {
	for _, p := range c.grid.Periods {
		if !p {
			return false
		}
	}
	return true
}

// DistGraph creates a distributed-graph communicator carrying exactly this
// neighborhood, suitable for the baseline MPI neighborhood collectives the
// paper compares against. Missing mesh neighbors are omitted.
func (c *Comm) DistGraph() (*mpi.Comm, error) {
	var sources, targets []int
	for _, r := range c.sources {
		if r != ProcNull {
			sources = append(sources, r)
		}
	}
	for _, r := range c.targets {
		if r != ProcNull {
			targets = append(targets, r)
		}
	}
	return mpi.DistGraphCreateAdjacent(c.comm, sources, mpi.Unweighted, targets, mpi.Unweighted, false)
}
