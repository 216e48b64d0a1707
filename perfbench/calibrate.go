package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark's host is a shared VM. Within minutes, and with little
// steal time to show for it, its two vCPUs run as if they were one:
// the same pass then takes up to twice as long and its CPU time reads
// as high. A timing taken in such a minute would read as a regression.
// So the gated times are scaled to a reference machine speed, measured
// next to each set-up and pass by a fixed CPU-bound loop on every CPU
// at once. The loop uses no repository code: no change to the program
// moves it, and a change in the host moves it as it moves the program.
// A workload that keeps fewer than all CPUs busy slows less than the
// loop does, so in a slow minute its scaled time reads up to ~15% low.

// calRefSeconds is what one calibration round takes on the reference
// machine: the 2-vCPU Xeon the benchmark was tuned on, with both vCPUs
// available. A gated time is the measured time × calRefSeconds / the
// calibration measured around it.
const calRefSeconds = 0.0092

// calIters is the loop length of one calibration round per CPU.
const calIters = 1 << 22

// calRounds is how many rounds one calibration takes; it reports their
// median.
const calRounds = 5

var calSink [256]float64

// calibrate runs the calibration loop on every CPU at once, calRounds
// times, and returns the median round's wall time.
func calibrate() float64 {
	procs := runtime.GOMAXPROCS(0)
	rounds := make([]float64, 0, calRounds)
	for r := 0; r < calRounds; r++ {
		var wg sync.WaitGroup
		t0 := time.Now()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				calSink[p%len(calSink)] = spin(uint64(p) + 1)
			}(p)
		}
		wg.Wait()
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return median(rounds)
}

// spin is the calibration loop: a dependent chain of integer and
// floating-point operations over a 4 KiB table, so it runs from L1
// and its speed is the core's.
func spin(x uint64) float64 {
	var tab [512]float64
	s := 0.0
	for k := 0; k < calIters; k++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & 511
		tab[j] = tab[j]*0.5 + float64(x>>11)*0x1p-53
		s += tab[(j*7+1)&511]
	}
	return s
}

// scale returns the factor that converts a time measured between two
// calibrations into reference-machine time.
func scale(calBefore, calAfter float64) float64 {
	c := (calBefore + calAfter) / 2
	if c <= 0 {
		return 1
	}
	return calRefSeconds / c
}
