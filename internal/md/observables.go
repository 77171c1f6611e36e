package md

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// Observables: the analysis quantities a downstream user of a
// bio-molecular framework actually wants from a trajectory — radial
// distribution function, mean-square displacement, and the virial
// pressure. All operate in float64 (analysis precision) regardless of
// the simulation precision.

// RDF accumulates the radial distribution function g(r) from snapshots.
type RDF struct {
	box    float64
	rMax   float64
	bins   []int64
	frames int
	atoms  int
}

// NewRDF builds an accumulator with the given bin count up to rMax
// (which must respect the minimum-image limit box/2).
func NewRDF(box, rMax float64, bins int) (*RDF, error) {
	if !positiveFinite(box) || !positiveFinite(rMax) || bins <= 0 {
		return nil, fmt.Errorf("md: RDF needs finite positive box and rMax and positive bins, got box=%v rMax=%v bins=%d",
			box, rMax, bins)
	}
	if rMax > box/2 {
		return nil, fmt.Errorf("md: RDF rMax %v exceeds half the box %v", rMax, box/2)
	}
	return &RDF{box: box, rMax: rMax, bins: make([]int64, bins)}, nil
}

// Accumulate adds one snapshot, scoring the pairs within rMax over the
// rows of a throwaway neighbor list. Every snapshot must hold the same
// number of atoms: Result normalizes all frames by one N.
func (r *RDF) Accumulate(pos Coords[float64]) error {
	return r.accumulate(scanList(Params[float64]{Box: r.box, Cutoff: r.rMax}, pos), pos)
}

// AccumulateOver is Accumulate over the rows of nl, the live neighbor
// list of a run with parameters p; a nil nl is Accumulate. nl is
// refreshed first, exactly as a force evaluation refreshes it, and
// must reach rMax: p.Box must be the RDF's box and rMax at most
// p.Cutoff+nl.Skin. Any valid list holds every pair within rMax, so
// the bins do not depend on which list scored them.
func (r *RDF) AccumulateOver(nl *NeighborList[float64], p Params[float64], pos Coords[float64]) error {
	if nl == nil {
		return r.Accumulate(pos)
	}
	if p.Box != r.box || !(r.rMax <= p.Cutoff+nl.Skin) {
		return fmt.Errorf("md: RDF (box %v, rMax %v) cannot use a neighbor list of box %v and radius %v",
			r.box, r.rMax, p.Box, p.Cutoff+nl.Skin)
	}
	nl.Refresh(p, pos)
	return r.accumulate(nl, pos)
}

// accumulate bins the pairs within rMax from nl's rows.
func (r *RDF) accumulate(nl *NeighborList[float64], pos Coords[float64]) error {
	n := pos.Len()
	if r.frames > 0 && n != r.atoms {
		return fmt.Errorf("md: RDF fed %d atoms, accumulating %d", n, r.atoms)
	}
	dr := r.rMax / float64(len(r.bins))
	last := len(r.bins) - 1
	for i := 0; i < n; i++ {
		pi := pos.At(i)
		for _, j := range nl.Neighbors(i) {
			d := MinImage(pi.Sub(pos.At(int(j))), r.box)
			dist := d.Norm()
			if dist < r.rMax {
				// dist/dr can round up to len(bins) just below rMax.
				r.bins[min(int(dist/dr), last)] += 2 // both orderings
			}
		}
	}
	r.frames++
	r.atoms = n
	return nil
}

// Frames returns the number of accumulated snapshots.
func (r *RDF) Frames() int { return r.frames }

// Result returns the bin centers and the normalized g(r): counts
// divided by the ideal-gas expectation for each shell.
func (r *RDF) Result() (centers, g []float64) {
	nb := len(r.bins)
	centers = make([]float64, nb)
	g = make([]float64, nb)
	if r.frames == 0 || r.atoms == 0 {
		return centers, g
	}
	dr := r.rMax / float64(nb)
	vol := r.box * r.box * r.box
	density := float64(r.atoms) / vol
	for b := 0; b < nb; b++ {
		rLo := float64(b) * dr
		rHi := rLo + dr
		centers[b] = (rLo + rHi) / 2
		shellVol := 4 * pi / 3 * (rHi*rHi*rHi - rLo*rLo*rLo)
		ideal := density * shellVol * float64(r.atoms) * float64(r.frames)
		if ideal > 0 {
			g[b] = float64(r.bins[b]) / ideal
		}
	}
	return centers, g
}

const pi = 3.141592653589793

// MSD tracks mean-square displacement from a reference configuration,
// using unwrapped trajectories: Track must be fed every step so that
// boundary crossings can be counted.
type MSD struct {
	box     float64
	origin  []vec.V3[float64]
	prev    []vec.V3[float64]
	images  []vec.V3[float64] // accumulated box crossings per atom
	tracked int
}

// NewMSD starts tracking from the given configuration.
func NewMSD(box float64, pos Coords[float64]) *MSD {
	m := &MSD{
		box:    box,
		origin: pos.V3s(),
		prev:   pos.V3s(),
		images: make([]vec.V3[float64], pos.Len()),
	}
	return m
}

// Track records the next wrapped snapshot, inferring boundary
// crossings from per-step displacements (valid while no atom moves
// more than half a box per step — guaranteed at sane time steps).
func (m *MSD) Track(pos Coords[float64]) error {
	if pos.Len() != len(m.prev) {
		return fmt.Errorf("md: MSD fed %d atoms, tracking %d", pos.Len(), len(m.prev))
	}
	for i := range m.prev {
		p := pos.At(i)
		d := p.Sub(m.prev[i])
		m.images[i] = m.images[i].Add(crossings(d, m.box))
		m.prev[i] = p
	}
	m.tracked++
	return nil
}

// crossings counts the box crossings implied by a wrapped displacement.
func crossings(d vec.V3[float64], box float64) vec.V3[float64] {
	h := box / 2
	var c vec.V3[float64]
	if d.X > h {
		c.X = -1
	} else if d.X < -h {
		c.X = 1
	}
	if d.Y > h {
		c.Y = -1
	} else if d.Y < -h {
		c.Y = 1
	}
	if d.Z > h {
		c.Z = -1
	} else if d.Z < -h {
		c.Z = 1
	}
	return c
}

// Value returns the current mean-square displacement.
func (m *MSD) Value() float64 {
	var sum float64
	for i := range m.prev {
		unwrapped := m.prev[i].Add(m.images[i].Scale(m.box))
		sum += unwrapped.Sub(m.origin[i]).Norm2()
	}
	return sum / float64(len(m.prev))
}

// VirialOver computes the instantaneous virial sum W = Σ_pairs f·r for
// the LJ system over the rows of nl, the live neighbor list of a run
// with parameters p, refreshed first as a force evaluation would
// refresh it; a nil nl builds a throwaway list on pos instead. The sum
// visits the pairs within the cutoff in (i ascending, j ascending)
// order, as an all-pairs scan does, so it is bitwise independent of
// the list. A non-finite coordinate returns NaN: the all-pairs scan
// scores a NaN pair distance and sums NaN, but a list build drops such
// pairs, and a blown-up state must not report a finite pressure.
func VirialOver(nl *NeighborList[float64], p Params[float64], pos Coords[float64]) float64 {
	if !pos.finite() {
		return math.NaN()
	}
	if nl == nil {
		nl = scanList(p, pos)
	} else {
		nl.Refresh(p, pos)
	}
	lj := NewLJ(p)
	rc2 := p.Cutoff * p.Cutoff
	var w float64
	for i := 0; i < pos.Len(); i++ {
		pi := pos.At(i)
		for _, j := range nl.Neighbors(i) {
			d := MinImage(pi.Sub(pos.At(int(j))), p.Box)
			r2 := d.Norm2()
			if r2 >= rc2 || r2 == 0 {
				continue
			}
			_, f := lj.Pair(r2)
			w += f * r2 // f*(r vector)·(r vector) = f*r²
		}
	}
	return w
}

// Pressure returns the instantaneous pressure P = (N k T + W/3) / V
// from the virial theorem (unit masses, k_B = 1).
func Pressure(p Params[float64], pos Coords[float64], temperature float64) float64 {
	return PressureOver(nil, p, pos, temperature)
}

// PressureOver is Pressure with the virial taken by VirialOver(nl, ...).
func PressureOver(nl *NeighborList[float64], p Params[float64], pos Coords[float64], temperature float64) float64 {
	vol := p.Box * p.Box * p.Box
	n := float64(pos.Len())
	return (n*temperature + VirialOver(nl, p, pos)/3) / vol
}
