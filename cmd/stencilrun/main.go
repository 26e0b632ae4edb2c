// Command stencilrun drives a distributed stencil computation end to end
// and reports the communication economics: rounds, volume, and per-
// exchange virtual time for the halo-exchange strategy of your choice —
// the application-level view of the paper's algorithms.
//
// Usage:
//
//	stencilrun [flags]
//
// Flags:
//
//	-procs N       number of simulated processes (default 16)
//	-grid N        global grid extent per dimension (default 64)
//	-iters N       stencil iterations (default 20)
//	-kernel K      jacobi5 | jacobi9 | life (default jacobi9)
//	-exchange X    moore | twophase | faces (default moore)
//	-algo A        combining | trivial | auto (default combining)
//	-model M       hydra | titan | none (default hydra)
//	-boundary B    torus | fixed (default torus)
//
// Example:
//
//	stencilrun -procs 16 -grid 128 -kernel jacobi9 -exchange twophase
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"sync"
	"time"

	"cartcc"
)

func main() {
	procs := flag.Int("procs", 16, "number of simulated processes")
	grid := flag.Int("grid", 64, "global grid extent per dimension")
	iters := flag.Int("iters", 20, "stencil iterations")
	kernel := flag.String("kernel", "jacobi9", "jacobi5 | jacobi9 | life")
	exchange := flag.String("exchange", "moore", "moore | twophase | faces")
	algoName := flag.String("algo", "combining", "combining | trivial | auto")
	modelName := flag.String("model", "hydra", "hydra | titan | none")
	boundary := flag.String("boundary", "torus", "torus (periodic) | fixed (Dirichlet zero halos)")
	flag.Parse()

	var algo cartcc.Algorithm
	switch *algoName {
	case "combining":
		algo = cartcc.Combining
	case "trivial":
		algo = cartcc.Trivial
	case "auto":
		algo = cartcc.Auto
	default:
		log.Fatalf("unknown algorithm %q", *algoName)
	}
	cfg := cartcc.RunConfig{Procs: *procs, Seed: 1, Timeout: 2 * time.Minute}
	if *modelName != "none" {
		m, err := cartcc.ModelPreset(*modelName)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Model = m
	}

	procDims, err := cartcc.DimsCreate(*procs, 2)
	if err != nil {
		log.Fatal(err)
	}
	nx, err := cartcc.Decompose(*grid, procDims[0])
	if err != nil {
		log.Fatal(err)
	}
	ny, err := cartcc.Decompose(*grid, procDims[1])
	if err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	var exchangeTime, computeNorm float64
	wall := time.Now()

	err = cartcc.Run(cfg, func(w *cartcc.ProcComm) error {
		src, err := cartcc.NewGrid2D[float64](nx, ny, 1)
		if err != nil {
			return err
		}
		dst, _ := cartcc.NewGrid2D[float64](nx, ny, 1)

		corners := *kernel != "jacobi5"
		var periods []bool
		if *boundary == "fixed" {
			periods = []bool{false, false}
		} else if *boundary != "torus" {
			return fmt.Errorf("unknown boundary %q", *boundary)
		}
		var doExchange func(g *cartcc.Grid2D[float64]) error
		var describe string
		// coords place this rank's block in the global field: the position
		// on the communicator the exchange runs on, which may be reordered.
		var coords []int
		switch *exchange {
		case "moore", "faces":
			useCorners := corners && *exchange == "moore"
			ex, err := cartcc.NewExchanger2DOn(w, procDims, periods, src, useCorners, algo)
			if err != nil {
				return err
			}
			doExchange = func(g *cartcc.Grid2D[float64]) error { return cartcc.Exchange2D(ex, g) }
			coords = ex.Comm().Coords()
			stats := cartcc.ComputeStats(ex.Comm().Neighborhood())
			describe = fmt.Sprintf("%d neighbors, %d rounds (%s)", stats.TComm, ex.Plan().Rounds(), ex.Plan().Algorithm())
			if *exchange == "faces" && corners {
				return fmt.Errorf("kernel %q needs corner halos; use -exchange moore or twophase", *kernel)
			}
		case "twophase":
			if periods != nil {
				return fmt.Errorf("the two-phase exchanger currently supports torus boundaries only")
			}
			ex, err := cartcc.NewTwoPhaseExchanger2D(w, procDims, src, algo)
			if err != nil {
				return err
			}
			doExchange = func(g *cartcc.Grid2D[float64]) error { return cartcc.ExchangeTwoPhase2D(ex, g) }
			coords = ex.Comm().Coords()
			describe = fmt.Sprintf("two-phase combined schedule, %d elements/exchange", ex.VolumeElements())
		default:
			return fmt.Errorf("unknown exchange %q", *exchange)
		}

		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				gr, gc := coords[0]*nx+i, coords[1]*ny+j
				src.Set(i, j, math.Sin(float64(gr))*math.Cos(float64(gc)))
			}
		}

		if err := cartcc.Barrier(w); err != nil {
			return err
		}
		var exT float64
		for it := 0; it < *iters; it++ {
			t0 := w.VTime()
			if err := doExchange(src); err != nil {
				return err
			}
			exT += w.VTime() - t0
			switch *kernel {
			case "jacobi5":
				cartcc.Jacobi5(dst, src)
			case "jacobi9":
				cartcc.Jacobi9(dst, src)
			case "life":
				return fmt.Errorf("life kernel needs a uint8 grid; use the gameoflife example")
			default:
				return fmt.Errorf("unknown kernel %q", *kernel)
			}
			src, dst = dst, src
		}
		norm := 0.0
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				norm += src.At(i, j) * src.At(i, j)
			}
		}
		buf := []float64{norm, exT}
		if err := cartcc.Allreduce(w, buf[:1], buf[:1], cartcc.SumOp); err != nil {
			return err
		}
		if err := cartcc.Allreduce(w, buf[1:], buf[1:], cartcc.MaxOf); err != nil {
			return err
		}
		if w.Rank() == 0 {
			mu.Lock()
			computeNorm = buf[0]
			exchangeTime = buf[1]
			mu.Unlock()
			fmt.Printf("exchange setup: %s\n", describe)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid %d² over %v processes (%dx%d local), %d iterations of %s\n",
		*grid, procDims, nx, ny, *iters, *kernel)
	fmt.Printf("final field norm: %.6f\n", computeNorm)
	if cfg.Model != nil {
		fmt.Printf("halo-exchange virtual time: %.1f µs total, %.2f µs/iteration\n",
			exchangeTime*1e6, exchangeTime*1e6/float64(*iters))
	}
	fmt.Printf("wall time: %v\n", time.Since(wall).Round(time.Millisecond))
}
