package main

import (
	"fmt"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/fixture"
	"repro/internal/logic"
	"repro/internal/stats"
)

// sizeSpec fixes how much work each workload's pass holds.
type sizeSpec struct {
	name string

	table3 []string // suite shapes of the table3 designs

	signoff   []string // suite shapes of the signoff designs
	signoffMC int      // plain Monte Carlo samples per signoff design

	serviceShape string // suite shape of every service netlist
	serviceJobs  int    // distinct fresh jobs per pass
	serviceMC    int    // mc_samples of every service job
}

// fullSize is the benchmark. Each pass holds enough designs or jobs
// that the pass time varies little from seed to seed; README.md gives
// the measured spreads.
var fullSize = sizeSpec{
	name:         "full",
	table3:       append(repeat("s880", 12), "s1908"),
	signoff:      []string{"s880", "s880", "s1908"},
	signoffMC:    20000,
	serviceShape: "s432",
	serviceJobs:  36,
	serviceMC:    1000,
}

// tinySize keeps the benchmark's own tests fast.
var tinySize = sizeSpec{
	name:         "tiny",
	table3:       []string{"s432"},
	signoff:      []string{"s432"},
	signoffMC:    2000,
	serviceShape: "s432",
	serviceJobs:  4,
	serviceMC:    200,
}

func repeat(shape string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = shape
	}
	return out
}

// genConfig is the bench.SuiteConfig shape of the named circuit with
// its generator seed derived from the workload seed and the circuit's
// index, so every input of a run follows from the one seed.
func genConfig(shape string, seed int64, index int) (bench.Config, error) {
	cfg, err := bench.SuiteConfig(shape)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = stats.StreamSeed(seed, index)
	cfg.Name = fmt.Sprintf("%s_%d", shape, index)
	return cfg, nil
}

// generate builds the circuit of genConfig(shape, seed, index).
func generate(shape string, seed int64, index int) (bench.Config, *logic.Circuit, error) {
	cfg, err := genConfig(shape, seed, index)
	if err != nil {
		return cfg, nil, err
	}
	c, err := bench.Generate(cfg)
	return cfg, c, err
}

// newDesign binds a circuit to the default 100nm library and
// variation model, the technology every workload uses.
func newDesign(c *logic.Circuit) (*core.Design, error) {
	env, err := fixture.DefaultEnv()
	if err != nil {
		return nil, err
	}
	return core.NewDesign(c, env.Lib, env.Var)
}
