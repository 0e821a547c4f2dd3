// Tracereplay records a benchmark's uops into memory and replays them
// through the full timing model — the workflow for running your own
// workloads: feed any uop stream (here a recorded slice; in practice a
// decoder over your own trace format) to NewReplaySimulation, then
// sweep estimator configurations over the identical instruction
// stream.
package main

import (
	"fmt"

	"bce"
)

// sliceSource replays a recorded slice of uops as a bce.TraceSource.
type sliceSource struct {
	uops []bce.Uop
	pos  int
}

func (s *sliceSource) Next() (bce.Uop, bool) {
	if s.pos >= len(s.uops) {
		return bce.Uop{}, false
	}
	s.pos++
	return s.uops[s.pos-1], true
}

func main() {
	// 1. Record 300k uops of mcf into memory.
	gen := bce.NewGenerator("mcf")
	rec := make([]bce.Uop, 300_000)
	for i := range rec {
		rec[i], _ = gen.Next()
	}
	fmt.Printf("recorded %d uops\n\n", len(rec))

	// 2. Replay the identical stream under three configurations.
	configs := []struct {
		name string
		cfg  bce.SimConfig
	}{
		{"ungated", bce.SimConfig{}},
		{"cic λ=0 PL1", bce.SimConfig{Estimator: bce.NewCIC(0), Gating: bce.PL(1)}},
		{"jrs λ=15 PL2", bce.SimConfig{Estimator: bce.NewEnhancedJRS(15), Gating: bce.PL(2)}},
	}
	var base bce.Run
	for i, c := range configs {
		sim := bce.NewReplaySimulation(c.cfg, &sliceSource{uops: rec})
		sim.Run(50_000)
		r := sim.Run(150_000)
		if i == 0 {
			base = r
			fmt.Printf("%-14s IPC %.3f, %d uops executed (%d wrong-path)\n",
				c.name, r.IPC(), r.Executed, r.WrongPathExecuted)
			continue
		}
		fmt.Printf("%-14s IPC %.3f, uop reduction %.1f%%, perf loss %.1f%%\n",
			c.name, r.IPC(), r.UopReductionPercent(base), r.PerfLossPercent(base))
	}
	fmt.Println("\nEvery run consumed the same recorded instruction stream;")
	fmt.Println("only the confidence estimator and gating policy differed.")
}
