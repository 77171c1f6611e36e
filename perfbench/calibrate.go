package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/faults"
)

// A shared 2-vCPU guest does not run at one speed: when other tenants
// load the physical core, the same code runs up to 1.7 times slower, in
// spells that last from milliseconds to minutes. Wall times taken in
// different spells differ by more than any useful regression bound. So
// the benchmark times a fixed probe kernel of its own right next to the
// program (at every MD step, after every served job's POST, around every
// set-up call) and reports the program's time scaled to a host on which
// the probe takes probeRef. The probe never changes with the program, so
// a change to the program moves the scaled time exactly as it moves the
// wall time; a change in host speed moves both the program and the
// probe, and cancels.

const (
	// probeAtoms is the size of the probe's all-pairs Lennard-Jones
	// sweep: 8128 pairs, 30 to 90 µs on a 2-vCPU Xeon guest depending on
	// the spell, with 3 KiB of positions so it barely touches the
	// program's cache lines.
	probeAtoms = 128
	// probeRef is the probe time that defines the reference host: about
	// the probe's median in the host's fast spells on the machine the
	// bounds were set on. Scaled times are in that host's units.
	probeRef = 50 * time.Microsecond
	// setupProbes is how many probes bracket each timed set-up call on
	// each side.
	setupProbes = 5
)

// probe is the benchmark's fixed calibration kernel: an all-pairs
// Lennard-Jones energy sweep with minimum-image branches, the inner loop
// of the program's direct force kernel without its stores. (A pairlist
// pass over an L2-sized system tracked the program's step times worse:
// its own time varied more with the host's spells than theirs did.)
type probe struct {
	x, y, z []float64
	box     float64
	sink    float64 // keeps the sweep from being optimized away
}

func newProbe() *probe {
	// A simple cubic arrangement, jittered deterministically, at
	// liquid density, so the cutoff branch goes both ways.
	const side = 5
	p := &probe{box: math.Cbrt(probeAtoms / 0.8442)}
	a := p.box / side
	for i := 0; i < probeAtoms; i++ {
		jit := 0.1 * math.Sin(float64(i)*1.7)
		p.x = append(p.x, (float64(i%side)+0.5+jit)*a)
		p.y = append(p.y, (float64(i/side%side)+0.5-jit)*a)
		p.z = append(p.z, (float64(i/(side*side))+0.5+jit)*a)
	}
	return p
}

// run sweeps every pair once and returns how long it took.
func (p *probe) run() time.Duration {
	t0 := time.Now()
	box, half := p.box, p.box/2
	e := 0.0
	for i := range p.x {
		xi, yi, zi := p.x[i], p.y[i], p.z[i]
		for j := i + 1; j < len(p.x); j++ {
			dx, dy, dz := p.x[j]-xi, p.y[j]-yi, p.z[j]-zi
			if dx > half {
				dx -= box
			} else if dx < -half {
				dx += box
			}
			if dy > half {
				dy -= box
			} else if dy < -half {
				dy += box
			}
			if dz > half {
				dz -= box
			} else if dz < -half {
				dz += box
			}
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < 6.25 {
				ir6 := 1 / (r2 * r2 * r2)
				e += ir6 * (ir6 - 1)
			}
		}
	}
	p.sink += e
	return time.Since(t0)
}

// median runs the probe n times and returns the median time.
func (p *probe) median(n int) time.Duration {
	ts := make([]time.Duration, n)
	for i := range ts {
		ts[i] = p.run()
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts[n/2]
}

// hostClock is a faults.Injector that never fires. mdrun asks it once
// per force evaluation, that is once per MD step, and it runs the probe
// there, so the probe samples the host's speed all through a timed run.
// The step has just evicted the probe's state, so the probe runs twice
// and only the second, warm, run is a sample. It is used only by serial
// runners, which ask from one goroutine.
type hostClock struct {
	p     *probe
	spent time.Duration // both probe runs, to take out of the timed run
	speed time.Duration // the warm runs alone
	runs  int
}

func (c *hostClock) Fire(site faults.Site) *faults.Fault {
	if site == faults.SiteForces {
		cold := c.p.run()
		warm := c.p.run()
		c.spent += cold + warm
		c.speed += warm
		c.runs++
	}
	return nil
}

// take returns the time spent probing, the warm probe time and the
// number of warm probes since the last take.
func (c *hostClock) take() (spent, speed time.Duration, runs int) {
	spent, speed, runs = c.spent, c.speed, c.runs
	c.spent, c.speed, c.runs = 0, 0, 0
	return spent, speed, runs
}

// scaled converts d, measured while the probe took probeTime on
// average, to the reference host.
func scaled(d, probeTime time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(probeRef) / float64(probeTime))
}
