// Package cartcc is a Go implementation of Cartesian Collective
// Communication (Träff & Hunold, ICPP 2019): sparse collective alltoall
// and allgather operations over processes organized in d-dimensional tori
// or meshes, with neighborhoods given as lists of relative coordinate
// offsets that are identical (isomorphic) on every process.
//
// Because the paper's system is an MPI library and Go has no maintained
// MPI bindings, cartcc ships its own message-passing runtime: ranks are
// goroutines with private state, communicating through tagged two-sided
// point-to-point operations with MPI matching semantics. An optional
// virtual-time α-β cost model reproduces the latency/bandwidth trade-offs
// of the paper's clusters, so the evaluation's figures can be regenerated
// on a laptop (see cmd/cartbench and EXPERIMENTS.md).
//
// # Quick start
//
//	cartcc.Launch(9, func(w *cartcc.ProcComm) error {
//		nbh, _ := cartcc.Stencil(2, 3, -1) // 9-point stencil offsets
//		c, err := cartcc.NeighborhoodCreate(w, []int{3, 3}, nil, nbh, nil)
//		if err != nil {
//			return err
//		}
//		send := make([]float64, c.NeighborCount())
//		recv := make([]float64, c.NeighborCount())
//		return cartcc.Alltoall(c, send, recv)
//	})
//
// The package is a facade: the implementation lives in internal/mpi (the
// runtime), internal/cart (the paper's algorithms), internal/datatype
// (derived-datatype layouts), internal/netmodel (cost models),
// internal/stencil (grid/halo substrate) and internal/bench (the
// experiment harness).
package cartcc

import (
	"time"

	"cartcc/internal/cart"
	"cartcc/internal/datatype"
	"cartcc/internal/mpi"
	"cartcc/internal/netmodel"
	"cartcc/internal/stencil"
	"cartcc/internal/tune"
	"cartcc/internal/vec"
)

// ---------------------------------------------------------------------
// Runtime: ranks, communicators, point-to-point and global collectives.
// ---------------------------------------------------------------------

// ProcComm is a communicator of the message-passing runtime: an ordered
// group of ranks with an isolated message context (the analog of an
// MPI_Comm).
type ProcComm = mpi.Comm

// RunConfig configures a parallel run: number of ranks, optional
// virtual-time cost model, noise seed and deadlock-watchdog timeout.
type RunConfig = mpi.Config

// Status describes a completed receive.
type Status = mpi.Status

// Request is a nonblocking-operation handle.
type Request = mpi.Request

// Wildcards for receive matching.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Run spawns cfg.Procs ranks, calls f on each with its world communicator
// and waits for completion; the first error or panic aborts the run.
func Run(cfg RunConfig, f func(c *ProcComm) error) error {
	return mpi.Run(cfg, f)
}

// Launch is Run with defaults: p ranks, wall-clock time, a 60 s deadlock
// watchdog.
func Launch(p int, f func(c *ProcComm) error) error {
	return mpi.Run(mpi.Config{Procs: p, Timeout: 60 * time.Second}, f)
}

// TransportConfig selects a network transport backend ("tcp" or "unix")
// and maps world ranks onto OS processes; see RunTransport.
type TransportConfig = mpi.TransportConfig

// ProcSpec names one process of a multi-process world: its listen address
// and the world ranks it hosts.
type ProcSpec = mpi.ProcSpec

// RunTransport is Run over a network transport: one world whose ranks
// span OS processes. Every process calls it with the same cfg and
// rank/address map, differing only in tc.Self; messages between processes
// travel the varint-framed wire format of internal/wire, and collectives,
// epochs and fault propagation behave as in-process. Plain Run also
// honors the CARTCC_TRANSPORT environment variable ("tcp", "unix",
// "loopback") by detouring all traffic of a single-process world through
// a real socket — the conformance battery's mode.
func RunTransport(cfg RunConfig, tc TransportConfig, f func(c *ProcComm) error) error {
	return mpi.RunTransport(cfg, tc, f)
}

// TransportEnvActive reports whether CARTCC_TRANSPORT currently selects a
// network backend.
func TransportEnvActive() bool { return mpi.TransportEnvActive() }

// Barrier blocks until every process in the communicator has entered it.
func Barrier(c *ProcComm) error { return mpi.Barrier(c) }

// Bcast broadcasts buf from root to every process.
func Bcast[T any](c *ProcComm, buf []T, root int) error { return mpi.Bcast(c, buf, root) }

// Allreduce combines the send buffers of all processes element-wise with
// op; the result lands in recv everywhere.
func Allreduce[T any](c *ProcComm, send, recv []T, op func(a, b T) T) error {
	return mpi.Allreduce(c, send, recv, op)
}

// GlobalAllgather collects the equally-sized send blocks of every process
// into recv on all processes, in rank order (the dense MPI_Allgather, as
// opposed to the sparse Cartesian Allgather).
func GlobalAllgather[T any](c *ProcComm, send, recv []T) error { return mpi.Allgather(c, send, recv) }

// GlobalGather collects the send blocks at root (the dense MPI_Gather).
func GlobalGather[T any](c *ProcComm, send, recv []T, root int) error {
	return mpi.Gather(c, send, recv, root)
}

// GlobalAlltoall performs the dense personalized exchange (MPI_Alltoall).
func GlobalAlltoall[T any](c *ProcComm, send, recv []T) error { return mpi.Alltoall(c, send, recv) }

// Reduction helpers.
func SumOp[T mpi.Number](a, b T) T { return mpi.SumOp(a, b) }

// MaxOf returns the larger of a and b (MPI_MAX).
func MaxOf[T ~int | ~int32 | ~int64 | ~float32 | ~float64](a, b T) T { return mpi.MaxOp(a, b) }

// ---------------------------------------------------------------------
// MPI neighborhood-collective baselines on distributed-graph
// communicators (the comparators of the paper's evaluation). Build the
// graph communicator with (*Comm).DistGraph().
// ---------------------------------------------------------------------

// NeighborAlltoall is the blocking sparse alltoall by direct delivery
// (MPI_Neighbor_alltoall), the baseline every figure normalizes to.
func NeighborAlltoall[T any](g *ProcComm, send, recv []T) error {
	return mpi.NeighborAlltoall(g, send, recv)
}

// IneighborAlltoall is the nonblocking form (MPI_Ineighbor_alltoall).
func IneighborAlltoall[T any](g *ProcComm, send, recv []T) (*Request, error) {
	return mpi.IneighborAlltoall(g, send, recv)
}

// NeighborAlltoallv is the blocking irregular sparse alltoall.
func NeighborAlltoallv[T any](g *ProcComm, send []T, sendCounts, sendDispls []int, recv []T, recvCounts, recvDispls []int) error {
	return mpi.NeighborAlltoallv(g, send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
}

// NeighborAlltoallw is the blocking typed sparse alltoall.
func NeighborAlltoallw[T any](g *ProcComm, send []T, sendLayouts []Layout, recv []T, recvLayouts []Layout) error {
	return mpi.NeighborAlltoallw(g, send, sendLayouts, recv, recvLayouts)
}

// NeighborAllgather is the blocking sparse allgather by direct delivery.
func NeighborAllgather[T any](g *ProcComm, send, recv []T) error {
	return mpi.NeighborAllgather(g, send, recv)
}

// IneighborAllgather is the nonblocking form.
func IneighborAllgather[T any](g *ProcComm, send, recv []T) (*Request, error) {
	return mpi.IneighborAllgather(g, send, recv)
}

// ---------------------------------------------------------------------
// Derived-datatype layouts.
// ---------------------------------------------------------------------

// Layout describes a non-contiguous selection of buffer elements, the
// analog of an MPI derived datatype; see Contiguous, VectorLayout,
// IndexedLayout and SubarrayLayout.
type Layout = datatype.Layout

// Contiguous returns a layout of count elements at offset off.
func Contiguous(off, count int) Layout { return datatype.Contiguous(off, count) }

// VectorLayout mirrors MPI_Type_vector: count blocks of blocklen elements,
// stride apart, starting at off.
func VectorLayout(count, blocklen, stride, off int) Layout {
	return datatype.Vector(count, blocklen, stride, off)
}

// IndexedLayout mirrors MPI_Type_indexed.
func IndexedLayout(displs, lengths []int) (Layout, error) { return datatype.Indexed(displs, lengths) }

// SubarrayLayout describes a rows×cols sub-block at (row0, col0) of a
// row-major 2-D array with rowLen elements per row.
func SubarrayLayout(rowLen, row0, col0, rows, cols int) Layout {
	return datatype.Subarray(rowLen, row0, col0, rows, cols)
}

// ---------------------------------------------------------------------
// Neighborhoods and grid geometry.
// ---------------------------------------------------------------------

// Vec is a d-dimensional integer coordinate vector (absolute or relative).
type Vec = vec.Vec

// Neighborhood is an ordered list of relative coordinate offsets, the
// t-neighborhood of the paper.
type Neighborhood = vec.Neighborhood

// Grid is the geometry of a process torus or mesh.
type Grid = vec.Grid

// Stencil generates the (d, n, f) neighborhood family of the paper's
// evaluation: all n^d offsets with every coordinate in {f, ..., f+n-1}.
func Stencil(d, n, f int) (Neighborhood, error) { return vec.Stencil(d, n, f) }

// Moore generates the Moore neighborhood of radius r in d dimensions.
func Moore(d, r int) (Neighborhood, error) { return vec.Moore(d, r) }

// VonNeumann generates the von Neumann neighborhood of radius r in d
// dimensions (the default MPI Cartesian neighborhood at r = 1, plus the
// zero offset).
func VonNeumann(d, r int) (Neighborhood, error) { return vec.VonNeumann(d, r) }

// Star generates the (2dr+1)-point star neighborhood of radius r: axis
// offsets only, the shape of higher-order finite-difference stencils.
func Star(d, r int) (Neighborhood, error) { return vec.Star(d, r) }

// DimsCreate factors p into d balanced extents, like MPI_Dims_create.
func DimsCreate(p, d int) ([]int, error) { return vec.DimsCreate(p, d) }

// NewGrid validates and returns a torus/mesh geometry (nil periods means
// fully periodic).
func NewGrid(dims []int, periods []bool) (*Grid, error) { return vec.NewGrid(dims, periods) }

// ---------------------------------------------------------------------
// Cartesian Collective Communication (the paper's interface, Section 2).
// ---------------------------------------------------------------------

// Comm is a Cartesian-neighborhood communicator created collectively by
// NeighborhoodCreate — the paper's Cart_neighborhood_create (Listing 1).
// Its methods provide the helper interface of Listing 2 (RelativeRank,
// RelativeShift, RelativeCoord, NeighborCount, NeighborGet).
type Comm = cart.Comm

// Algorithm selects the schedule family: Combining (Algorithms 1 and 2),
// Trivial (Listing 4) or Auto (analytic cut-off per operation).
type Algorithm = cart.Algorithm

// Schedule families. AlgorithmAuto is the self-tuning selector — the
// default of NeighborhoodCreate — which picks Trivial or Combining per
// (operation, neighborhood, block size) from a calibrated machine
// profile; Auto is its short alias.
const (
	Combining     = cart.Combining
	Trivial       = cart.Trivial
	Auto          = cart.Auto
	AlgorithmAuto = cart.Auto
)

// ProcNull marks a missing neighbor on a non-periodic mesh.
const ProcNull = cart.ProcNull

// Plan is a precomputed, reusable communication plan — the result of the
// paper's Cart_*_init persistent-collective initializers.
type Plan = cart.Plan

// Option configures NeighborhoodCreate.
type Option = cart.Option

// WithAlgorithm sets the communicator's default schedule family.
func WithAlgorithm(a Algorithm) Option { return cart.WithAlgorithm(a) }

// WithReorder requests topology-aware rank renumbering: when the run's
// cost model declares a node hierarchy, the torus is tiled into node-sized
// blocks so stencil neighbors co-locate (the paper's reorder flag, which
// it notes mainstream MPI libraries accept but ignore).
func WithReorder() Option { return cart.WithReorder() }

// NeighborhoodCreate creates a Cartesian-neighborhood communicator over
// base: a torus/mesh of the given dimensions and one identical list of
// relative target offsets on every process. Collective; the isomorphism
// requirement is verified with the O(t) check of the paper's Section 2.2.
func NeighborhoodCreate(base *ProcComm, dims []int, periods []bool, neighborhood Neighborhood, weights []int, opts ...Option) (*Comm, error) {
	return cart.NeighborhoodCreate(base, dims, periods, neighborhood, weights, opts...)
}

// NeighborhoodCreateFlat is NeighborhoodCreate with the neighborhood as a
// flattened t×d offset array, the exact convention of Listing 1.
func NeighborhoodCreateFlat(base *ProcComm, d int, dims []int, periods []bool, targetRelative []int, weights []int, opts ...Option) (*Comm, error) {
	return cart.NeighborhoodCreateFlat(base, d, dims, periods, targetRelative, weights, opts...)
}

// DetectCartesian implements Section 2.2's auto-detection: from
// per-process target rank lists, collectively detect an isomorphic
// neighborhood and preselect the Cartesian algorithms.
func DetectCartesian(base *ProcComm, dims []int, periods []bool, targets []int, opts ...Option) (*Comm, bool, error) {
	return cart.DetectCartesian(base, dims, periods, targets, opts...)
}

// Alltoall sends a personalized block of m = len(send)/t elements to each
// target neighbor and receives block i from source neighbor i.
func Alltoall[T any](c *Comm, send, recv []T) error { return cart.Alltoall(c, send, recv) }

// Allgather sends all of send to every target neighbor and receives block
// i from source neighbor i.
func Allgather[T any](c *Comm, send, recv []T) error { return cart.Allgather(c, send, recv) }

// Alltoallv is the irregular alltoall with per-neighbor counts and
// displacements.
func Alltoallv[T any](c *Comm, send []T, sendCounts, sendDispls []int, recv []T, recvCounts, recvDispls []int) error {
	return cart.Alltoallv(c, send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
}

// Allgatherv is the irregular allgather with per-source receive counts and
// displacements.
func Allgatherv[T any](c *Comm, send []T, recv []T, recvCounts, recvDispls []int) error {
	return cart.Allgatherv(c, send, recv, recvCounts, recvDispls)
}

// Alltoallw is the fully typed alltoall: an arbitrary element layout per
// neighbor block on both sides (Listing 3's halo exchange).
func Alltoallw[T any](c *Comm, send []T, sendLayouts []Layout, recv []T, recvLayouts []Layout) error {
	return cart.Alltoallw(c, send, sendLayouts, recv, recvLayouts)
}

// Allgatherw is the typed allgather the paper proposes as an MPI
// addition: one send layout, a distinct receive layout per source block.
func Allgatherw[T any](c *Comm, send []T, sendLayout Layout, recv []T, recvLayouts []Layout) error {
	return cart.Allgatherw(c, send, sendLayout, recv, recvLayouts)
}

// Persistent-plan initializers (Cart_*_init).
func AlltoallInit(c *Comm, m int, algo Algorithm) (*Plan, error) {
	return cart.AlltoallInit(c, m, algo)
}

// AllgatherInit precomputes a reusable allgather plan.
func AllgatherInit(c *Comm, m int, algo Algorithm) (*Plan, error) {
	return cart.AllgatherInit(c, m, algo)
}

// AlltoallvInit precomputes a reusable irregular alltoall plan.
func AlltoallvInit(c *Comm, sendCounts, sendDispls, recvCounts, recvDispls []int, algo Algorithm) (*Plan, error) {
	return cart.AlltoallvInit(c, sendCounts, sendDispls, recvCounts, recvDispls, algo)
}

// AlltoallwInit precomputes a reusable typed alltoall plan.
func AlltoallwInit(c *Comm, sendLayouts, recvLayouts []Layout, algo Algorithm) (*Plan, error) {
	return cart.AlltoallwInit(c, sendLayouts, recvLayouts, algo)
}

// AllgathervInit precomputes a reusable irregular allgather plan.
func AllgathervInit(c *Comm, sendCount int, recvCounts, recvDispls []int, algo Algorithm) (*Plan, error) {
	return cart.AllgathervInit(c, sendCount, recvCounts, recvDispls, algo)
}

// AllgatherwInit precomputes a reusable typed allgather plan.
func AllgatherwInit(c *Comm, sendLayout Layout, recvLayouts []Layout, algo Algorithm) (*Plan, error) {
	return cart.AllgatherwInit(c, sendLayout, recvLayouts, algo)
}

// RunPlan executes a precomputed plan (persistent-collective style); the
// element type binds at execution time.
func RunPlan[T any](p *Plan, send, recv []T) error { return cart.Run(p, send, recv) }

// MeshAlltoallInit precomputes the mesh-aware message-combining alltoall
// plan — the non-periodic case the paper leaves open (Section 2): every
// process derives its own relay set locally and pairing stays
// deadlock-free. On a torus it matches AlltoallInit with Combining.
func MeshAlltoallInit(c *Comm, m int) (*Plan, error) { return cart.MeshAlltoallInit(c, m) }

// Future is an in-flight nonblocking collective committed to the
// communicator's progress engine: Wait blocks for completion.
// Multiple futures may be in flight per communicator; all ranks must
// start them in the same order.
type Future = cart.Future

// StartPlan begins a nonblocking execution of a plan on the progress
// engine (wall-clock runs only); complete it with the future's Wait.
func StartPlan[T any](p *Plan, send, recv []T) (*Future, error) {
	return cart.Start(p, send, recv)
}

// IcartAlltoall starts the nonblocking regular Cartesian alltoall
// (the paper's Cart_alltoall as a nonblocking collective): the plan comes
// from the communicator's cache, the rounds run on the per-world progress
// engine, and the returned future completes the operation.
func IcartAlltoall[T any](c *Comm, send, recv []T) (*Future, error) {
	return cart.IcartAlltoall(c, send, recv)
}

// IcartAllgather starts the nonblocking regular Cartesian allgather.
func IcartAllgather[T any](c *Comm, send, recv []T) (*Future, error) {
	return cart.IcartAllgather(c, send, recv)
}

// ReducePlan is a precomputed Cartesian neighborhood reduction plan (the
// Section 2.2 extension; the combining algorithm is the reversed allgather
// tree).
type ReducePlan = cart.ReducePlan

// NeighborReduceInit precomputes a neighborhood reduction plan for blocks
// of m elements.
func NeighborReduceInit(c *Comm, m int, algo Algorithm) (*ReducePlan, error) {
	return cart.NeighborReduceInit(c, m, algo)
}

// RunReduce executes a reduction plan: recv receives the op-combination of
// the contributions of all source neighbors R − N[i].
func RunReduce[T any](p *ReducePlan, send, recv []T, op func(a, b T) T) error {
	return cart.RunReduce(p, send, recv, op)
}

// NeighborReduce performs the blocking Cartesian neighborhood reduction.
func NeighborReduce[T any](c *Comm, send, recv []T, op func(a, b T) T) error {
	return cart.NeighborReduce(c, send, recv, op)
}

// ScheduleStats summarizes a neighborhood's schedule structure: t, C_k,
// C, the alltoall and allgather volumes and the cut-off ratio of Table 1.
type ScheduleStats = cart.Stats

// ComputeStats derives the Table 1 quantities from a neighborhood.
func ComputeStats(nbh Neighborhood) ScheduleStats { return cart.ComputeStats(nbh) }

// ---------------------------------------------------------------------
// Self-tuning algorithm selection and the compiled-plan cache.
// ---------------------------------------------------------------------

// Decision records one Auto algorithm selection: the inputs, both
// predicted costs, the crossover block size and the pick. Retrieve it
// from a plan with (*Plan).Decision after its first execution.
type Decision = cart.Decision

// OpKind names a collective operation family in selection records.
type OpKind = cart.OpKind

// Collective operation kinds.
const (
	OpAlltoall  = cart.OpAlltoall
	OpAllgather = cart.OpAllgather
)

// MachineProfile holds the calibrated machine constants the Auto
// selector uses: α (per-message latency), β (per-byte transfer time) and
// the send/receive CPU overheads, all in seconds.
type MachineProfile = tune.Profile

// CalibrateConfig bounds a calibration: probe count and the large-probe
// payload size.
type CalibrateConfig = tune.CalibrateConfig

// DefaultMachineProfile returns the built-in fallback constants (the
// paper's Hydra system), used when no cost model and no measured
// profile is available.
func DefaultMachineProfile() MachineProfile { return tune.Default() }

// Calibrate estimates the machine constants from seeded micro-probes
// over the live world (collective over c): ping-pongs for α and β, a
// nonblocking burst for the send/receive overheads. Under a virtual-time
// cost model it returns the model's constants deterministically. Install
// the result with SetMachineProfile to steer Auto selections.
func Calibrate(c *ProcComm, cfgs ...CalibrateConfig) (MachineProfile, error) {
	return tune.Calibrate(c, cfgs...)
}

// SetMachineProfile installs p as the process-wide measured profile;
// Auto selections on worlds without a cost model use it.
func SetMachineProfile(p MachineProfile) error { return tune.SetMachine(p) }

// MachineProfileInstalled returns the installed measured profile, if any.
func MachineProfileInstalled() (MachineProfile, bool) { return tune.Machine() }

// ClearMachineProfile removes the installed profile; Auto falls back to
// the built-in default constants.
func ClearMachineProfile() { tune.ClearMachine() }

// SaveMachineProfile persists a profile as JSON.
func SaveMachineProfile(path string, p MachineProfile) error { return tune.Save(path, p) }

// LoadMachineProfile reads a profile saved by SaveMachineProfile.
func LoadMachineProfile(path string) (MachineProfile, error) { return tune.Load(path) }

// DecideAlgorithm evaluates the selection model directly: given the
// operation, the neighborhood statistics (t trivial rounds, c combining
// rounds, v combining volume in blocks, d grid dimensions), the mean
// block size in bytes and a machine profile, it returns the full
// decision record. Pure — cartinfo uses it to print selection tables
// without building a world.
func DecideAlgorithm(op OpKind, t, c, v, d int, blockBytes float64, prof MachineProfile) Decision {
	return cart.Decide(op, t, c, v, d, blockBytes, prof)
}

// PlanCacheStats is a snapshot of the shared compiled-plan cache:
// occupancy, capacity, retained bytes and hit/miss/eviction counters.
type PlanCacheStats = cart.PlanCacheStats

// SnapshotPlanCache returns the current plan-cache statistics.
func SnapshotPlanCache() PlanCacheStats { return cart.SnapshotPlanCache() }

// SetPlanCacheCapacity bounds the shared plan cache to n entries
// (0 disables caching), evicting least-recently-used entries as needed;
// it returns the previous capacity.
func SetPlanCacheCapacity(n int) int { return cart.SetPlanCacheCapacity(n) }

// ResetPlanCache discards every cached plan and zeroes the statistics.
func ResetPlanCache() { cart.ResetPlanCache() }

// ---------------------------------------------------------------------
// Cost models (the evaluation substrate).
// ---------------------------------------------------------------------

// Model is the linear α-β per-message cost model driving virtual time.
type Model = netmodel.Model

// ModelPreset returns a named cost model: "hydra", "titan" or
// "titan-noisy" (Table 2's systems).
func ModelPreset(name string) (*Model, error) { return netmodel.Preset(name) }

// ---------------------------------------------------------------------
// Stencil application substrate (Listing 3 made reusable).
// ---------------------------------------------------------------------

// Grid2D is one process's block of a distributed 2-D grid with halo.
type Grid2D[T any] = stencil.Grid2D[T]

// Grid3D is one process's block of a distributed 3-D grid with halo.
type Grid3D[T any] = stencil.Grid3D[T]

// Exchanger2D performs the in-place 2-D halo exchange with one
// Cart_alltoallw plan.
type Exchanger2D = stencil.Exchanger2D

// Exchanger3D performs the in-place 3-D halo exchange.
type Exchanger3D = stencil.Exchanger3D

// NewGrid2D allocates a zeroed nx×ny block with the given halo depth.
func NewGrid2D[T any](nx, ny, halo int) (*Grid2D[T], error) {
	return stencil.NewGrid2D[T](nx, ny, halo)
}

// NewGrid3D allocates a zeroed nx×ny×nz block with the given halo depth.
func NewGrid3D[T any](nx, ny, nz, halo int) (*Grid3D[T], error) {
	return stencil.NewGrid3D[T](nx, ny, nz, halo)
}

// NewExchanger2D builds the 2-D halo exchanger over the process torus
// procDims; corners selects the 8-neighbor Moore exchange.
func NewExchanger2D[T any](base *ProcComm, procDims []int, g *Grid2D[T], corners bool, algo Algorithm) (*Exchanger2D, error) {
	return stencil.NewExchanger2D(base, procDims, g, corners, algo)
}

// NewExchanger2DOn is NewExchanger2D with explicit periodicity: mesh
// dimensions leave their physical-boundary halos untouched for the
// application's boundary conditions.
func NewExchanger2DOn[T any](base *ProcComm, procDims []int, periods []bool, g *Grid2D[T], corners bool, algo Algorithm) (*Exchanger2D, error) {
	return stencil.NewExchanger2DOn(base, procDims, periods, g, corners, algo)
}

// NewExchanger3D builds the 3-D halo exchanger; corners selects the
// 26-neighbor Moore exchange.
func NewExchanger3D[T any](base *ProcComm, procDims []int, g *Grid3D[T], corners bool, algo Algorithm) (*Exchanger3D, error) {
	return stencil.NewExchanger3D(base, procDims, g, corners, algo)
}

// NewExchanger3DOn is NewExchanger3D with explicit periodicity.
func NewExchanger3DOn[T any](base *ProcComm, procDims []int, periods []bool, g *Grid3D[T], corners bool, algo Algorithm) (*Exchanger3D, error) {
	return stencil.NewExchanger3DOn(base, procDims, periods, g, corners, algo)
}

// Exchange2D fills g's halo from the neighboring processes, in place.
func Exchange2D[T any](e *Exchanger2D, g *Grid2D[T]) error { return stencil.ExchangeGrid2D(e, g) }

// Exchange3D fills g's halo from the neighboring processes, in place.
func Exchange3D[T any](e *Exchanger3D, g *Grid3D[T]) error { return stencil.ExchangeGrid3D(e, g) }

// TwoPhaseExchanger2D is the combined-schedule halo exchanger of the
// paper's Section 3.4: dimension-wise widened strips forward the corners
// inside data that travels anyway, eliminating the duplicated corner
// bytes of the plain Moore exchange.
type TwoPhaseExchanger2D = stencil.TwoPhaseExchanger2D

// TwoPhaseExchanger3D is the 3-D combined-schedule halo exchanger.
type TwoPhaseExchanger3D = stencil.TwoPhaseExchanger3D

// NewTwoPhaseExchanger2D builds the combined-schedule 2-D exchanger.
func NewTwoPhaseExchanger2D[T any](base *ProcComm, procDims []int, g *Grid2D[T], algo Algorithm) (*TwoPhaseExchanger2D, error) {
	return stencil.NewTwoPhaseExchanger2D(base, procDims, g, algo)
}

// NewTwoPhaseExchanger3D builds the combined-schedule 3-D exchanger.
func NewTwoPhaseExchanger3D[T any](base *ProcComm, procDims []int, g *Grid3D[T], algo Algorithm) (*TwoPhaseExchanger3D, error) {
	return stencil.NewTwoPhaseExchanger3D(base, procDims, g, algo)
}

// ExchangeTwoPhase2D runs both phases of the combined 2-D exchange.
func ExchangeTwoPhase2D[T any](e *TwoPhaseExchanger2D, g *Grid2D[T]) error {
	return stencil.ExchangeTwoPhase2D(e, g)
}

// ExchangeTwoPhase3D runs all three phases of the combined 3-D exchange.
func ExchangeTwoPhase3D[T any](e *TwoPhaseExchanger3D, g *Grid3D[T]) error {
	return stencil.ExchangeTwoPhase3D(e, g)
}

// Decompose splits a global grid extent evenly over parts processes.
func Decompose(global, parts int) (int, error) { return stencil.Decompose(global, parts) }

// Stencil kernels for the examples.
func Jacobi5(dst, src *Grid2D[float64])           { stencil.Jacobi5(dst, src) }
func Jacobi9(dst, src *Grid2D[float64])           { stencil.Jacobi9(dst, src) }
func Heat7(dst, src *Grid3D[float64], r float64)  { stencil.Heat7(dst, src, r) }
func Heat27(dst, src *Grid3D[float64], r float64) { stencil.Heat27(dst, src, r) }
func LifeStep(dst, src *Grid2D[uint8])            { stencil.Life(dst, src) }
