package mpi

import (
	"cmp"
	"fmt"

	"cartcc/internal/datatype"
)

// collCtxBit separates collective traffic from point-to-point traffic on
// the same communicator, playing the role of MPI's hidden collective
// context: a user AnyTag receive can never match a collective message.
const collCtxBit = int64(1) << 62

// coll returns a shadow communicator in the collective context.
func (c *Comm) coll() *Comm {
	cc := *c
	cc.ctx ^= collCtxBit
	return &cc
}

// Barrier blocks until every process in the communicator has entered it.
// Dissemination algorithm: ⌈log2 p⌉ rounds of empty-message exchange.
func Barrier(c *Comm) error {
	cc := c.coll()
	p := cc.size
	for dist := 1; dist < p; dist <<= 1 {
		dst := (cc.rank + dist) % p
		src := (cc.rank - dist%p + p) % p
		if _, err := Sendrecv(cc, []byte{}, datatype.Layout{}, dst, 1,
			[]byte{}, datatype.Layout{}, src, 1); err != nil {
			return err
		}
	}
	return nil
}

// Bcast broadcasts buf from root to every process, binomial tree.
func Bcast[T any](c *Comm, buf []T, root int) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	cc := c.coll()
	p := cc.size
	relative := (cc.rank - root + p) % p
	whole := datatype.Contiguous(0, len(buf))
	mask := 1
	for mask < p {
		if relative&mask != 0 {
			src := ((relative - mask) + root) % p
			if _, err := Recv(cc, buf, whole, src, 2); err != nil {
				return err
			}
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if relative+mask < p {
			dst := ((relative + mask) + root) % p
			if err := Send(cc, buf, whole, dst, 2); err != nil {
				return err
			}
		}
		mask >>= 1
	}
	return nil
}

// Reduce combines the send buffers of all processes element-wise with op
// (which must be associative and commutative) and leaves the result in recv
// at root. recv is ignored on non-roots. Binomial tree.
func Reduce[T any](c *Comm, send, recv []T, op func(a, b T) T, root int) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	if c.rank == root && len(recv) < len(send) {
		return fmt.Errorf("mpi: Reduce recv length %d < send length %d", len(recv), len(send))
	}
	cc := c.coll()
	p := cc.size
	relative := (cc.rank - root + p) % p
	acc := make([]T, len(send))
	copy(acc, send)
	tmp := make([]T, len(send))
	whole := datatype.Contiguous(0, len(send))
	for mask := 1; mask < p; mask <<= 1 {
		if relative&mask != 0 {
			dst := ((relative &^ mask) + root) % p
			return Send(cc, acc, whole, dst, 3)
		}
		peer := relative | mask
		if peer < p {
			if _, err := Recv(cc, tmp, whole, (peer+root)%p, 3); err != nil {
				return err
			}
			for i := range acc {
				acc[i] = op(acc[i], tmp[i])
			}
		}
	}
	copy(recv, acc)
	return nil
}

// Allreduce is Reduce followed by Bcast; the result lands in recv on every
// process.
func Allreduce[T any](c *Comm, send, recv []T, op func(a, b T) T) error {
	if len(recv) < len(send) {
		return fmt.Errorf("mpi: Allreduce recv length %d < send length %d", len(recv), len(send))
	}
	if err := Reduce(c, send, recv, op, 0); err != nil {
		return err
	}
	return Bcast(c, recv[:len(send)], 0)
}

// Gather collects the equally-sized send blocks of all processes into recv
// at root, in rank order. recv must have p·len(send) elements at root.
func Gather[T any](c *Comm, send, recv []T, root int) error {
	if err := c.checkRank(root, "root"); err != nil {
		return err
	}
	cc := c.coll()
	blk := len(send)
	if cc.rank != root {
		return Send(cc, send, datatype.Contiguous(0, blk), root, 4)
	}
	if len(recv) < cc.size*blk {
		return fmt.Errorf("mpi: Gather recv length %d < %d", len(recv), cc.size*blk)
	}
	reqs := make([]*Request, 0, cc.size)
	for r := 0; r < cc.size; r++ {
		if r == root {
			copy(recv[r*blk:(r+1)*blk], send)
			continue
		}
		req, err := Irecv(cc, recv, datatype.Contiguous(r*blk, blk), r, 4)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return Waitall(reqs...)
}

// Allgather collects the equally-sized send blocks of all processes into
// recv on every process, in rank order. Ring algorithm: p−1 rounds of
// neighbor exchange.
func Allgather[T any](c *Comm, send, recv []T) error {
	cc := c.coll()
	p := cc.size
	blk := len(send)
	if len(recv) < p*blk {
		return fmt.Errorf("mpi: Allgather recv length %d < %d", len(recv), p*blk)
	}
	copy(recv[cc.rank*blk:(cc.rank+1)*blk], send)
	if p == 1 {
		return nil
	}
	right := (cc.rank + 1) % p
	left := (cc.rank - 1 + p) % p
	for i := 0; i < p-1; i++ {
		sendBlk := ((cc.rank-i)%p + p) % p
		recvBlk := ((cc.rank-i-1)%p + p) % p
		if _, err := Sendrecv(cc,
			recv, datatype.Contiguous(sendBlk*blk, blk), right, 6,
			recv, datatype.Contiguous(recvBlk*blk, blk), left, 6); err != nil {
			return err
		}
	}
	return nil
}

// Alltoall sends block r of send to process r and receives block r of recv
// from process r, for all r; direct delivery with nonblocking operations.
// len(send) and len(recv) must both be p·blk for a common block size blk.
func Alltoall[T any](c *Comm, send, recv []T) error {
	cc := c.coll()
	p := cc.size
	if len(send)%p != 0 || len(recv) != len(send) {
		return fmt.Errorf("mpi: Alltoall buffer lengths %d/%d not divisible into %d equal blocks", len(send), len(recv), p)
	}
	blk := len(send) / p
	reqs := make([]*Request, 0, 2*p)
	for r := 0; r < p; r++ {
		req, err := Irecv(cc, recv, datatype.Contiguous(r*blk, blk), r, 7)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	for r := 0; r < p; r++ {
		req, err := Isend(cc, send, datatype.Contiguous(r*blk, blk), r, 7)
		if err != nil {
			return err
		}
		reqs = append(reqs, req)
	}
	return Waitall(reqs...)
}

// Number is the constraint for the built-in reduction helpers.
type Number interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 |
		~float32 | ~float64
}

// SumOp returns a + b; the usual MPI_SUM.
func SumOp[T Number](a, b T) T { return a + b }

// MaxOp returns the larger of a and b; MPI_MAX.
func MaxOp[T cmp.Ordered](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// MinOp returns the smaller of a and b; MPI_MIN.
func MinOp[T cmp.Ordered](a, b T) T {
	if a < b {
		return a
	}
	return b
}
