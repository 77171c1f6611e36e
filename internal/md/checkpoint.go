package md

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Checkpoint/restart: long production runs must survive interruption,
// and a restart must continue the trajectory *bit-exactly* — otherwise
// restarted and uninterrupted runs diverge and results stop being
// reproducible. The format is a little-endian binary image of the full
// float64 state with a magic header and version.
//
// Format v2 appends a CRC32 (IEEE) trailer computed over everything
// from the magic through the last payload byte, so a truncated or
// bit-flipped checkpoint — a crash mid-write, a lying disk, a short
// write — is rejected instead of silently seeding a corrupt restart.
//
// Format v3 keeps v2's header and trailer but stores the state as nine
// component planes (PosX[n] PosY[n] PosZ[n], then Vel, then Acc)
// instead of per-atom x,y,z triples — the serialization of the SoA
// layout the kernels now run over, written and restored with straight
// plane copies instead of a gather/scatter per atom. v1 (AoS, no
// trailer) and v2 (AoS + CRC) files are still read for compatibility;
// writes are always v3.

const (
	checkpointMagic     = uint32(0x4d444350) // "MDCP"
	checkpointVersion1  = uint32(1)          // legacy: AoS, no integrity trailer
	checkpointVersion2  = uint32(2)          // legacy: AoS + CRC32 trailer
	checkpointVersion   = uint32(3)          // current: SoA planes + CRC32 trailer
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
	if err := writeCheckpointBody(mw, s, checkpointVersion); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCheckpointV1 emits the legacy trailer-less AoS format. Retained
// (unexported) so the compatibility tests can produce genuine v1
// streams without keeping binary golden files in the tree.
func writeCheckpointV1(w io.Writer, s *System[float64]) error {
	bw := bufio.NewWriter(w)
	if err := writeCheckpointBody(bw, s, checkpointVersion1); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCheckpointV2 emits the legacy CRC-trailed AoS format, for the
// same compatibility-test purpose as writeCheckpointV1.
func writeCheckpointV2(w io.Writer, s *System[float64]) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	if err := writeCheckpointBody(mw, s, checkpointVersion2); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCheckpointBody writes magic, version, scalars, flags, counts,
// and the state payload — AoS triples for v1/v2, component planes for
// v3. The header layout and total payload size are identical across
// versions; only the element order differs.
func writeCheckpointBody(w io.Writer, s *System[float64], version uint32) error {
	head := []uint32{checkpointMagic, version}
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
	sets := [3]Coords[float64]{s.Pos, s.Vel, s.Acc}
	if version == checkpointVersion1 || version == checkpointVersion2 {
		for _, c := range sets {
			for i := 0; i < c.Len(); i++ {
				v := c.At(i)
				for _, x := range [3]float64{v.X, v.Y, v.Z} {
					if err := binary.Write(w, binary.LittleEndian, x); err != nil {
						return err
					}
				}
			}
		}
		return nil
	}
	for _, c := range sets {
		for _, plane := range [3][]float64{c.X, c.Y, c.Z} {
			if err := binary.Write(w, binary.LittleEndian, plane); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadCheckpoint reconstructs a system from a checkpoint stream. It
// accepts format v3 (SoA planes, verifying the CRC32 trailer), v2
// (AoS, CRC-trailed), and legacy v1 (AoS, no trailer); any truncation,
// bit corruption (v2/v3), hostile length field, or non-finite state
// yields an error, never a panic. Allocation is incremental, so a
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
	if version != checkpointVersion1 && version != checkpointVersion2 && version != checkpointVersion {
		return nil, fmt.Errorf("md: unsupported checkpoint version %d", version)
	}

	// For v2/v3, hash everything from the magic through the payload; the
	// magic and version were already consumed, so feed them to the hash
	// by hand and tee the rest of the body through it.
	var crc hash.Hash32
	var body io.Reader = br
	if version != checkpointVersion1 {
		crc = crc32.NewIEEE()
		var head [8]byte
		binary.LittleEndian.PutUint32(head[0:4], magic)
		binary.LittleEndian.PutUint32(head[4:8], version)
		crc.Write(head[:])
		body = io.TeeReader(br, crc)
	}

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
	sets := [3]*Coords[float64]{&s.Pos, &s.Vel, &s.Acc}
	if version == checkpointVersion {
		for _, c := range sets {
			for _, plane := range [3]*[]float64{&c.X, &c.Y, &c.Z} {
				p, err := readPlane(body, int(n))
				if err != nil {
					return nil, err
				}
				*plane = p
			}
		}
	} else {
		for _, c := range sets {
			read, err := readV3Planes(body, int(n))
			if err != nil {
				return nil, err
			}
			*c = read
		}
	}
	if version != checkpointVersion1 {
		var want uint32
		if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
			return nil, fmt.Errorf("md: truncated checkpoint trailer: %w", err)
		}
		if got := crc.Sum32(); got != want {
			return nil, fmt.Errorf("md: checkpoint CRC mismatch (file %#x, computed %#x)", want, got)
		}
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

// readV3Planes reads n legacy AoS triples, scattering them into SoA
// planes with the same bounded-chunk growth policy as readPlane.
func readV3Planes(r io.Reader, n int) (Coords[float64], error) {
	cap0 := min(n, checkpointAllocStep)
	c := Coords[float64]{
		X: make([]float64, 0, cap0),
		Y: make([]float64, 0, cap0),
		Z: make([]float64, 0, cap0),
	}
	for len(c.X) < n {
		var t [3]float64
		for j := range t {
			if err := binary.Read(r, binary.LittleEndian, &t[j]); err != nil {
				return Coords[float64]{}, fmt.Errorf("md: truncated checkpoint: %w", err)
			}
			if math.IsNaN(t[j]) || math.IsInf(t[j], 0) {
				return Coords[float64]{}, fmt.Errorf("md: checkpoint contains non-finite state")
			}
		}
		c.X = append(c.X, t[0])
		c.Y = append(c.Y, t[1])
		c.Z = append(c.Z, t[2])
	}
	return c, nil
}
