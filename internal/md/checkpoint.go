package md

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint/restart: long production runs must survive interruption,
// and a restart must continue the trajectory *bit-exactly* — otherwise
// restarted and uninterrupted runs diverge and results stop being
// reproducible. The format (version 3) is a little-endian binary image
// of the full float64 state: a magic header and version, the scalars,
// then the state as nine component planes (PosX[n] PosY[n] PosZ[n],
// then Vel, then Acc) — the serialization of the SoA layout the
// kernels run over, written and restored with straight plane copies.
// A CRC32 (IEEE) trailer covers everything from the magic through the
// last payload byte, so a truncated or bit-flipped checkpoint — a
// crash mid-write, a lying disk, a short write — is rejected instead
// of silently seeding a corrupt restart. Versions 1 and 2 (per-atom
// triples, the first without a trailer) are refused.

const (
	checkpointMagic     = uint32(0x4d444350) // "MDCP"
	checkpointVersion   = uint32(3)          // SoA planes + CRC32 trailer
	checkpointMaxAtoms  = 1 << 26            // 64M atoms: refuse absurd headers
	checkpointMaxSteps  = uint64(1) << 62    // refuse step counts that overflow int
	checkpointAllocStep = 1 << 16            // atoms allocated per chunk while reading
)

// WriteCheckpoint serializes the complete system state in format v3
// (SoA planes, CRC32-trailed). The caller owns durability
// (fsync/rename); see fsys.WriteAtomic for the atomic on-disk protocol.
func WriteCheckpoint(w io.Writer, s *System[float64]) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	// Everything through the payload goes through the CRC; the trailer
	// itself does not.
	mw := io.MultiWriter(bw, crc)
	if err := writeCheckpointBody(mw, s); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCheckpointBody writes magic, version, scalars, flags, counts,
// and the component planes.
func writeCheckpointBody(w io.Writer, s *System[float64]) error {
	head := []uint32{checkpointMagic, checkpointVersion}
	for _, v := range head {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	scalars := []float64{s.P.Box, s.P.Cutoff, s.P.Dt, s.P.Epsilon, s.P.Sigma, s.PE, s.KE}
	for _, v := range scalars {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	flags := uint32(0)
	if s.P.Shifted {
		flags = 1
	}
	if err := binary.Write(w, binary.LittleEndian, flags); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(s.Steps)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(s.N())); err != nil {
		return err
	}
	for _, c := range [3]Coords[float64]{s.Pos, s.Vel, s.Acc} {
		for _, plane := range [3][]float64{c.X, c.Y, c.Z} {
			if err := binary.Write(w, binary.LittleEndian, plane); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCheckpoint reconstructs a system from a version-3 checkpoint
// stream, verifying its CRC32 trailer; any other version, truncation,
// bit corruption, hostile length field, or non-finite state yields an
// error, never a panic. Allocation is incremental, so a
// hostile header cannot force a giant up-front allocation the stream
// doesn't back.
func ReadCheckpoint(r io.Reader) (*System[float64], error) {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("md: reading checkpoint magic: %w", err)
	}
	if magic != checkpointMagic {
		return nil, fmt.Errorf("md: not a checkpoint (magic %#x)", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("md: unsupported checkpoint version %d (want %d)", version, checkpointVersion)
	}

	// Hash everything from the magic through the payload; the magic and
	// version were already consumed, so feed them to the hash by hand
	// and tee the rest of the body through it.
	crc := crc32.NewIEEE()
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], magic)
	binary.LittleEndian.PutUint32(head[4:8], version)
	crc.Write(head[:])
	body := io.TeeReader(br, crc)

	var scalars [7]float64
	for i := range scalars {
		if err := binary.Read(body, binary.LittleEndian, &scalars[i]); err != nil {
			return nil, fmt.Errorf("md: truncated checkpoint header: %w", err)
		}
	}
	var flags uint32
	if err := binary.Read(body, binary.LittleEndian, &flags); err != nil {
		return nil, fmt.Errorf("md: truncated checkpoint header: %w", err)
	}
	var steps, n uint64
	if err := binary.Read(body, binary.LittleEndian, &steps); err != nil {
		return nil, fmt.Errorf("md: truncated checkpoint header: %w", err)
	}
	if err := binary.Read(body, binary.LittleEndian, &n); err != nil {
		return nil, fmt.Errorf("md: truncated checkpoint header: %w", err)
	}
	if n == 0 || n > checkpointMaxAtoms {
		return nil, fmt.Errorf("md: checkpoint claims %d atoms", n)
	}
	if steps > checkpointMaxSteps {
		return nil, fmt.Errorf("md: checkpoint claims %d steps", steps)
	}
	s := &System[float64]{
		P: Params[float64]{
			Box: scalars[0], Cutoff: scalars[1], Dt: scalars[2],
			Epsilon: scalars[3], Sigma: scalars[4],
			Shifted: flags&1 != 0,
		},
		PE:    scalars[5],
		KE:    scalars[6],
		Steps: int(steps),
	}
	if err := s.P.Validate(); err != nil {
		return nil, fmt.Errorf("md: checkpoint parameters invalid: %w", err)
	}
	for _, c := range [3]*Coords[float64]{&s.Pos, &s.Vel, &s.Acc} {
		for _, plane := range [3]*[]float64{&c.X, &c.Y, &c.Z} {
			p, err := readPlane(body, int(n))
			if err != nil {
				return nil, err
			}
			*plane = p
		}
	}
	var want uint32
	if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
		return nil, fmt.Errorf("md: truncated checkpoint trailer: %w", err)
	}
	if got := crc.Sum32(); got != want {
		return nil, fmt.Errorf("md: checkpoint CRC mismatch (file %#x, computed %#x)", want, got)
	}
	return s, nil
}

// readPlane reads one n-element component plane, growing the slice in
// bounded chunks so memory use tracks the bytes actually present in
// the stream rather than the (possibly hostile) header count.
func readPlane(r io.Reader, n int) ([]float64, error) {
	out := make([]float64, 0, min(n, checkpointAllocStep))
	for len(out) < n {
		var v float64
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return nil, fmt.Errorf("md: truncated checkpoint: %w", err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("md: checkpoint contains non-finite state")
		}
		out = append(out, v)
	}
	return out, nil
}
