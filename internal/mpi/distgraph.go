package mpi

import "fmt"

// GraphInfo is the distributed-graph topology attached to a communicator by
// DistGraphCreateAdjacent: this process's in-neighbors (Sources) and
// out-neighbors (Targets), with optional edge weights.
type GraphInfo struct {
	Sources       []int
	SourceWeights []int
	Targets       []int
	TargetWeights []int
}

// Unweighted marks a neighborhood without weights, like MPI_UNWEIGHTED.
var Unweighted []int = nil

// DistGraphCreateAdjacent returns a new communicator with a distributed
// graph topology, like MPI_Dist_graph_create_adjacent: each process names
// its own in-neighbors (sources) and out-neighbors (targets) by rank.
// Weight slices may be Unweighted. The adjacency must be globally
// consistent (rank s listing t as target implies t lists s as source with
// the same multiplicity); the runtime does not verify this globally, but
// the neighborhood collectives will deadlock-watchdog on violations.
// Collective.
func DistGraphCreateAdjacent(c *Comm, sources, sourceWeights, targets, targetWeights []int, reorder bool) (*Comm, error) {
	for _, r := range sources {
		if err := c.checkRank(r, "graph source"); err != nil {
			return nil, err
		}
	}
	for _, r := range targets {
		if err := c.checkRank(r, "graph target"); err != nil {
			return nil, err
		}
	}
	if sourceWeights != nil && len(sourceWeights) != len(sources) {
		return nil, fmt.Errorf("mpi: %d source weights for %d sources", len(sourceWeights), len(sources))
	}
	if targetWeights != nil && len(targetWeights) != len(targets) {
		return nil, fmt.Errorf("mpi: %d target weights for %d targets", len(targetWeights), len(targets))
	}
	_ = reorder
	nc, err := c.Dup()
	if err != nil {
		return nil, err
	}
	nc.graph = &GraphInfo{
		Sources:       append([]int(nil), sources...),
		SourceWeights: append([]int(nil), sourceWeights...),
		Targets:       append([]int(nil), targets...),
		TargetWeights: append([]int(nil), targetWeights...),
	}
	return nc, nil
}

// DistGraphNeighborsCount returns the in- and out-degree of the calling
// process, like MPI_Dist_graph_neighbors_count.
func (c *Comm) DistGraphNeighborsCount() (indegree, outdegree int, err error) {
	if c.graph == nil {
		return 0, 0, fmt.Errorf("mpi: communicator has no graph topology")
	}
	return len(c.graph.Sources), len(c.graph.Targets), nil
}

// graphTopology returns the graph info or an error for the neighborhood
// collectives.
func (c *Comm) graphTopology() (*GraphInfo, error) {
	if c.graph == nil {
		return nil, fmt.Errorf("mpi: neighborhood collective on a communicator without graph topology")
	}
	return c.graph, nil
}
