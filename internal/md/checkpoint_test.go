package md

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestCheckpointRoundTripBitExact(t *testing.T) {
	s := makeSystem(t, 108, true)
	s.Run(25)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.P != s.P || restored.Steps != s.Steps || restored.PE != s.PE || restored.KE != s.KE {
		t.Fatalf("header mismatch: %+v vs %+v", restored.P, s.P)
	}
	for i := 0; i < s.N(); i++ {
		if restored.Pos.At(i) != s.Pos.At(i) || restored.Vel.At(i) != s.Vel.At(i) || restored.Acc.At(i) != s.Acc.At(i) {
			t.Fatalf("state mismatch at atom %d", i)
		}
	}
}

func TestRestartContinuesBitExactly(t *testing.T) {
	// Run 50 steps straight through; separately run 25, checkpoint,
	// restore, run 25 more. The trajectories must be identical.
	straight := makeSystem(t, 64, false)
	interrupted := straight.Clone()
	straight.Run(50)

	interrupted.Run(25)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, interrupted); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored.Run(25)

	if restored.Steps != straight.Steps {
		t.Fatalf("steps: %d vs %d", restored.Steps, straight.Steps)
	}
	for i := 0; i < straight.N(); i++ {
		if restored.Pos.At(i) != straight.Pos.At(i) || restored.Vel.At(i) != straight.Vel.At(i) {
			t.Fatalf("restart diverged at atom %d", i)
		}
	}
	if restored.PE != straight.PE || restored.KE != straight.KE {
		t.Fatal("restart energies diverged")
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"not a checkpoint at all",
		"\x00\x00\x00\x00",
	}
	for i, in := range cases {
		if _, err := ReadCheckpoint(strings.NewReader(in)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestCheckpointRejectsTruncation(t *testing.T) {
	s := makeSystem(t, 32, false)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 2, len(full) - 8} {
		if _, err := ReadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestCheckpointRejectsCorruptHeader(t *testing.T) {
	s := makeSystem(t, 32, false)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the version field: an unknown version, or the per-atom
	// layouts of versions 1 and 2, which are refused, not misread.
	for _, version := range []byte{0xFF, 1, 2} {
		corrupted := append([]byte(nil), data...)
		corrupted[4] = version
		_, err := ReadCheckpoint(bytes.NewReader(corrupted))
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", version)) {
			t.Errorf("version %d: error %v, want an unsupported-version refusal", version, err)
		}
	}
	// Corrupt the atom count to something absurd.
	corrupted := append([]byte(nil), data...)
	// magic(4) + version(4) + 7 float64(56) + flags(4) + steps(8) = 76;
	// atom count lives at offset 76.
	for i := 0; i < 8; i++ {
		corrupted[76+i] = 0xFF
	}
	if _, err := ReadCheckpoint(bytes.NewReader(corrupted)); err == nil {
		t.Error("absurd atom count accepted")
	}
}

func TestCheckpointRejectsNonFiniteState(t *testing.T) {
	s := makeSystem(t, 32, false)
	s.Vel.X[3] = nanF()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(&buf); err == nil {
		t.Fatal("NaN state accepted on read")
	}
}

func nanF() float64 { z := 0.0; return z / z }

// TestCheckpointTruncationEveryByte simulates a crash at every possible
// point of a checkpoint write: every strict prefix of a valid file
// must be rejected with a clean error — the CRC trailer plus fixed
// layout guarantee no prefix parses as a complete checkpoint.
func TestCheckpointTruncationEveryByte(t *testing.T) {
	s := makeSystem(t, 32, true)
	s.Run(3)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadCheckpoint(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d accepted", cut, len(full))
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(full)); err != nil {
		t.Fatalf("untruncated file rejected: %v", err)
	}
}

// TestCheckpointBitFlipEveryByte flips each byte of a valid file in
// turn; the CRC trailer (or a stricter structural check) must reject
// every corruption, so a flipped mantissa byte cannot load silently.
func TestCheckpointBitFlipEveryByte(t *testing.T) {
	s := makeSystem(t, 16, false)
	s.Run(2)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	corrupt := make([]byte, len(full))
	for i := range full {
		copy(corrupt, full)
		corrupt[i] ^= 0x40
		if _, err := ReadCheckpoint(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at byte %d of %d accepted", i, len(full))
		}
	}
}

// TestCheckpointHostileAtomCountNoBigAlloc: a header claiming the
// maximum atom count over a near-empty stream must fail fast without
// allocating the claimed state (chunked reads bound memory by the
// bytes actually present).
func TestCheckpointHostileAtomCountNoBigAlloc(t *testing.T) {
	s := makeSystem(t, 16, false)
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, s); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Atom count lives at offset 76 (magic 4 + version 4 + scalars 56 +
	// flags 4 + steps 8). Claim exactly checkpointMaxAtoms — passes the
	// header bound — while providing only the original 16 atoms of
	// payload: the chunked reader must fail at EOF, not allocate 4.6GB.
	for i := 0; i < 8; i++ {
		data[76+i] = 0
	}
	data[76+3] = 0x04 // little-endian 0x04000000 = 1<<26
	if _, err := ReadCheckpoint(bytes.NewReader(data)); err == nil {
		t.Fatal("hostile atom count accepted")
	}
}
