package mpi

import (
	"fmt"
	"testing"

	"cartcc/internal/datatype"
)

// contig1 is a one-element contiguous layout, shorthand for the tests.
func contig1() datatype.Layout { return datatype.Contiguous(0, 1) }

func TestDistGraphCreateAndQuery(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		// Directed ring: each rank sends to rank+1, receives from rank-1.
		p := c.Size()
		targets := []int{(c.Rank() + 1) % p}
		sources := []int{(c.Rank() - 1 + p) % p}
		g, err := DistGraphCreateAdjacent(c, sources, Unweighted, targets, Unweighted, false)
		if err != nil {
			return err
		}
		in, out, err := g.DistGraphNeighborsCount()
		if err != nil || in != 1 || out != 1 {
			return fmt.Errorf("degrees %d/%d, err %v", in, out, err)
		}
		if g.graph == nil || g.graph.Sources[0] != sources[0] {
			return fmt.Errorf("graph info lost")
		}
		return nil
	})
}

func TestDistGraphValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if _, err := DistGraphCreateAdjacent(c, []int{5}, nil, nil, nil, false); err == nil {
			return fmt.Errorf("invalid source accepted")
		}
		if _, err := DistGraphCreateAdjacent(c, []int{0}, []int{1, 2}, nil, nil, false); err == nil {
			return fmt.Errorf("mismatched weights accepted")
		}
		return nil
	})
}

func TestNeighborAlltoallRing(t *testing.T) {
	run(t, 5, func(c *Comm) error {
		p := c.Size()
		targets := []int{(c.Rank() + 1) % p, (c.Rank() + 2) % p}
		sources := []int{(c.Rank() - 1 + p) % p, (c.Rank() - 2 + p) % p}
		g, err := DistGraphCreateAdjacent(c, sources, nil, targets, nil, false)
		if err != nil {
			return err
		}
		send := []int{c.Rank()*10 + 1, c.Rank()*10 + 2}
		recv := make([]int, 2)
		if err := NeighborAlltoall(g, send, recv); err != nil {
			return err
		}
		// Block i of recv comes from sources[i]: the rank at distance i+1
		// behind us sent its block i.
		want0 := sources[0]*10 + 1
		want1 := sources[1]*10 + 2
		if recv[0] != want0 || recv[1] != want1 {
			return fmt.Errorf("rank %d recv %v, want [%d %d]", c.Rank(), recv, want0, want1)
		}
		return nil
	})
}

func TestNeighborAlltoallMultiEdges(t *testing.T) {
	// The same peer appearing twice in the neighbor lists must match blocks
	// in list order (the paper: different targets may map to one process).
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		targets := []int{other, other}
		sources := []int{other, other}
		g, err := DistGraphCreateAdjacent(c, sources, nil, targets, nil, false)
		if err != nil {
			return err
		}
		send := []int{c.Rank()*10 + 1, c.Rank()*10 + 2}
		recv := make([]int, 2)
		if err := NeighborAlltoall(g, send, recv); err != nil {
			return err
		}
		if recv[0] != other*10+1 || recv[1] != other*10+2 {
			return fmt.Errorf("rank %d recv %v", c.Rank(), recv)
		}
		return nil
	})
}

func TestNeighborAlltoallSelfLoop(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		targets := []int{c.Rank()}
		sources := []int{c.Rank()}
		g, err := DistGraphCreateAdjacent(c, sources, nil, targets, nil, false)
		if err != nil {
			return err
		}
		send := []int{c.Rank() + 100}
		recv := make([]int, 1)
		if err := NeighborAlltoall(g, send, recv); err != nil {
			return err
		}
		if recv[0] != c.Rank()+100 {
			return fmt.Errorf("self loop recv %v", recv)
		}
		return nil
	})
}

func TestNeighborAlltoallv(t *testing.T) {
	run(t, 3, func(c *Comm) error {
		p := c.Size()
		targets := []int{(c.Rank() + 1) % p}
		sources := []int{(c.Rank() - 1 + p) % p}
		g, err := DistGraphCreateAdjacent(c, sources, nil, targets, nil, false)
		if err != nil {
			return err
		}
		// Each rank sends rank+1 elements; receives sources[0]+1 elements.
		n := c.Rank() + 1
		send := make([]int, n)
		for i := range send {
			send[i] = c.Rank()*100 + i
		}
		rn := sources[0] + 1
		recv := make([]int, rn+2)
		err = NeighborAlltoallv(g, send, []int{n}, []int{0}, recv, []int{rn}, []int{2})
		if err != nil {
			return err
		}
		for i := 0; i < rn; i++ {
			if recv[2+i] != sources[0]*100+i {
				return fmt.Errorf("rank %d recv %v", c.Rank(), recv)
			}
		}
		return nil
	})
}

func TestNeighborAllgather(t *testing.T) {
	run(t, 4, func(c *Comm) error {
		p := c.Size()
		targets := []int{(c.Rank() + 1) % p, (c.Rank() + 3) % p}
		sources := []int{(c.Rank() - 1 + p) % p, (c.Rank() - 3 + p) % p}
		g, err := DistGraphCreateAdjacent(c, sources, nil, targets, nil, false)
		if err != nil {
			return err
		}
		send := []int{c.Rank(), c.Rank() * 7}
		recv := make([]int, 4)
		if err := NeighborAllgather(g, send, recv); err != nil {
			return err
		}
		if recv[0] != sources[0] || recv[1] != sources[0]*7 ||
			recv[2] != sources[1] || recv[3] != sources[1]*7 {
			return fmt.Errorf("rank %d recv %v (sources %v)", c.Rank(), recv, sources)
		}
		return nil
	})
}

func TestNeighborOnNonGraphComm(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		if err := NeighborAlltoall(c, []int{1}, []int{0}); err == nil {
			return fmt.Errorf("neighborhood collective without topology accepted")
		}
		return nil
	})
}

func TestNeighborLengthValidation(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		g, err := DistGraphCreateAdjacent(c, []int{other}, nil, []int{other}, nil, false)
		if err != nil {
			return err
		}
		if err := NeighborAllgather(g, []int{1, 2}, []int{0}); err == nil {
			return fmt.Errorf("bad allgather recv length accepted")
		}
		return nil
	})
}

func TestIneighborNonblockingOverlap(t *testing.T) {
	// Two outstanding neighborhood collectives must match in call order.
	run(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		g, err := DistGraphCreateAdjacent(c, []int{other}, nil, []int{other}, nil, false)
		if err != nil {
			return err
		}
		send1 := []int{c.Rank()*10 + 1}
		send2 := []int{c.Rank()*10 + 2}
		recv1 := make([]int, 1)
		recv2 := make([]int, 1)
		r1, err := IneighborAlltoall(g, send1, recv1)
		if err != nil {
			return err
		}
		r2, err := IneighborAlltoall(g, send2, recv2)
		if err != nil {
			return err
		}
		if err := Waitall(r2, r1); err != nil {
			return err
		}
		if recv1[0] != other*10+1 || recv2[0] != other*10+2 {
			return fmt.Errorf("rank %d got %v %v", c.Rank(), recv1, recv2)
		}
		return nil
	})
}

func TestNeighborEmptyNeighborhood(t *testing.T) {
	run(t, 2, func(c *Comm) error {
		g, err := DistGraphCreateAdjacent(c, nil, nil, nil, nil, false)
		if err != nil {
			return err
		}
		return NeighborAlltoall(g, []int{}, []int{})
	})
}
