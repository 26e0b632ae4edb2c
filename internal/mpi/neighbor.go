package mpi

import (
	"fmt"

	"cartcc/internal/datatype"
)

// Neighborhood collectives on distributed-graph communicators, the MPI
// baselines of the paper's evaluation (MPI_Neighbor_alltoall(v/w),
// MPI_Neighbor_allgather(v), and their nonblocking Ineighbor_ forms).
// All of them deliver directly: one message per graph edge, posted
// nonblockingly — which is what mainstream MPI implementations do and
// exactly the behaviour the message-combining algorithms compete against.

const (
	tagNeighborAlltoall  = 8
	tagNeighborAllgather = 9
)

// IneighborAlltoall starts a nonblocking sparse alltoall: block i of send
// goes to target i, block i of recv comes from source i. len(send) must be
// outdegree·blk and len(recv) indegree·blk for a common block size blk.
func IneighborAlltoall[T any](c *Comm, send, recv []T) (*Request, error) {
	g, err := c.graphTopology()
	if err != nil {
		return nil, err
	}
	blk, err := neighborBlock(len(send), len(recv), len(g.Targets), len(g.Sources), "IneighborAlltoall")
	if err != nil {
		return nil, err
	}
	cc := c.coll()
	reqs := make([]*Request, 0, len(g.Sources)+len(g.Targets))
	for i, src := range g.Sources {
		req, err := Irecv(cc, recv, datatype.Contiguous(i*blk, blk), src, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	for i, dst := range g.Targets {
		req, err := Isend(cc, send, datatype.Contiguous(i*blk, blk), dst, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return aggregate(c, reqs), nil
}

// NeighborAlltoall is the blocking form of IneighborAlltoall.
func NeighborAlltoall[T any](c *Comm, send, recv []T) error {
	req, err := IneighborAlltoall(c, send, recv)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// IneighborAlltoallv starts a nonblocking irregular sparse alltoall with
// per-neighbor counts and displacements (in elements), like
// MPI_Ineighbor_alltoallv.
func IneighborAlltoallv[T any](c *Comm, send []T, sendCounts, sendDispls []int,
	recv []T, recvCounts, recvDispls []int) (*Request, error) {
	g, err := c.graphTopology()
	if err != nil {
		return nil, err
	}
	if len(sendCounts) != len(g.Targets) || len(sendDispls) != len(g.Targets) {
		return nil, fmt.Errorf("mpi: IneighborAlltoallv: %d send counts / %d displs for %d targets",
			len(sendCounts), len(sendDispls), len(g.Targets))
	}
	if len(recvCounts) != len(g.Sources) || len(recvDispls) != len(g.Sources) {
		return nil, fmt.Errorf("mpi: IneighborAlltoallv: %d recv counts / %d displs for %d sources",
			len(recvCounts), len(recvDispls), len(g.Sources))
	}
	cc := c.coll()
	reqs := make([]*Request, 0, len(g.Sources)+len(g.Targets))
	for i, src := range g.Sources {
		req, err := Irecv(cc, recv, datatype.Contiguous(recvDispls[i], recvCounts[i]), src, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	for i, dst := range g.Targets {
		req, err := Isend(cc, send, datatype.Contiguous(sendDispls[i], sendCounts[i]), dst, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return aggregate(c, reqs), nil
}

// NeighborAlltoallv is the blocking form of IneighborAlltoallv.
func NeighborAlltoallv[T any](c *Comm, send []T, sendCounts, sendDispls []int,
	recv []T, recvCounts, recvDispls []int) error {
	req, err := IneighborAlltoallv(c, send, sendCounts, sendDispls, recv, recvCounts, recvDispls)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// IneighborAlltoallw starts a nonblocking sparse alltoall with a fully
// general layout per neighbor block, like MPI_Ineighbor_alltoallw: the i-th
// send layout selects the data for target i directly in send, the i-th
// receive layout places the block from source i directly in recv — no
// intermediate buffers (zero-copy in the paper's sense).
func IneighborAlltoallw[T any](c *Comm, send []T, sendLayouts []datatype.Layout,
	recv []T, recvLayouts []datatype.Layout) (*Request, error) {
	g, err := c.graphTopology()
	if err != nil {
		return nil, err
	}
	if len(sendLayouts) != len(g.Targets) {
		return nil, fmt.Errorf("mpi: IneighborAlltoallw: %d send layouts for %d targets", len(sendLayouts), len(g.Targets))
	}
	if len(recvLayouts) != len(g.Sources) {
		return nil, fmt.Errorf("mpi: IneighborAlltoallw: %d recv layouts for %d sources", len(recvLayouts), len(g.Sources))
	}
	cc := c.coll()
	reqs := make([]*Request, 0, len(g.Sources)+len(g.Targets))
	for i, src := range g.Sources {
		req, err := Irecv(cc, recv, recvLayouts[i], src, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	for i, dst := range g.Targets {
		req, err := Isend(cc, send, sendLayouts[i], dst, tagNeighborAlltoall)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return aggregate(c, reqs), nil
}

// NeighborAlltoallw is the blocking form of IneighborAlltoallw.
func NeighborAlltoallw[T any](c *Comm, send []T, sendLayouts []datatype.Layout,
	recv []T, recvLayouts []datatype.Layout) error {
	req, err := IneighborAlltoallw(c, send, sendLayouts, recv, recvLayouts)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// IneighborAllgather starts a nonblocking sparse allgather: the whole send
// buffer goes to every target; block i of recv comes from source i.
func IneighborAllgather[T any](c *Comm, send, recv []T) (*Request, error) {
	g, err := c.graphTopology()
	if err != nil {
		return nil, err
	}
	blk := len(send)
	if len(recv) != blk*len(g.Sources) {
		return nil, fmt.Errorf("mpi: IneighborAllgather: recv length %d, want %d (indegree %d × block %d)",
			len(recv), blk*len(g.Sources), len(g.Sources), blk)
	}
	cc := c.coll()
	reqs := make([]*Request, 0, len(g.Sources)+len(g.Targets))
	for i, src := range g.Sources {
		req, err := Irecv(cc, recv, datatype.Contiguous(i*blk, blk), src, tagNeighborAllgather)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	whole := datatype.Contiguous(0, blk)
	for _, dst := range g.Targets {
		req, err := Isend(cc, send, whole, dst, tagNeighborAllgather)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, req)
	}
	return aggregate(c, reqs), nil
}

// NeighborAllgather is the blocking form of IneighborAllgather.
func NeighborAllgather[T any](c *Comm, send, recv []T) error {
	req, err := IneighborAllgather(c, send, recv)
	if err != nil {
		return err
	}
	_, err = req.Wait()
	return err
}

// neighborBlock derives and validates the common block size of the regular
// neighborhood operations.
func neighborBlock(sendLen, recvLen, outdeg, indeg int, op string) (int, error) {
	switch {
	case outdeg == 0 && indeg == 0:
		if sendLen != 0 || recvLen != 0 {
			return 0, fmt.Errorf("mpi: %s: non-empty buffers with empty neighborhood", op)
		}
		return 0, nil
	case outdeg == 0:
		if recvLen%indeg != 0 {
			return 0, fmt.Errorf("mpi: %s: recv length %d not divisible by indegree %d", op, recvLen, indeg)
		}
		return recvLen / indeg, nil
	case indeg == 0:
		if sendLen%outdeg != 0 {
			return 0, fmt.Errorf("mpi: %s: send length %d not divisible by outdegree %d", op, sendLen, outdeg)
		}
		return sendLen / outdeg, nil
	default:
		if sendLen%outdeg != 0 {
			return 0, fmt.Errorf("mpi: %s: send length %d not divisible by outdegree %d", op, sendLen, outdeg)
		}
		blk := sendLen / outdeg
		if recvLen != blk*indeg {
			return 0, fmt.Errorf("mpi: %s: recv length %d, want %d (indegree %d × block %d)", op, recvLen, blk*indeg, indeg, blk)
		}
		return blk, nil
	}
}
