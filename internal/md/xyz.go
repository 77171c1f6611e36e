package md

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/vec"
)

// XYZ trajectory I/O: the simplest interchange format downstream
// visualization tools accept. Each frame is
//
//	<N>
//	<comment line>
//	<symbol> <x> <y> <z>     (N lines)
//
// The writer/reader pair round-trips bit-exactly through %.17g.

// XYZWriter streams frames to an io.Writer.
type XYZWriter struct {
	w      *bufio.Writer
	symbol string
	frames int
	line   []byte // one atom line at a time, reused across frames
}

// NewXYZWriter wraps w; symbol labels every atom (e.g. "Ar").
func NewXYZWriter(w io.Writer, symbol string) *XYZWriter {
	if symbol == "" {
		symbol = "X"
	}
	return &XYZWriter{w: bufio.NewWriter(w), symbol: symbol}
}

// WriteFrame appends one snapshot with the given comment.
func (x *XYZWriter) WriteFrame(comment string, pos Coords[float64]) error {
	if strings.ContainsAny(comment, "\n\r") {
		return fmt.Errorf("md: XYZ comment must be a single line")
	}
	b := strconv.AppendInt(x.line[:0], int64(pos.Len()), 10)
	b = append(append(append(b, '\n'), comment...), '\n')
	if _, err := x.w.Write(b); err != nil {
		return err
	}
	// Each coordinate is AppendFloat's 'g' form at 17 digits, which is
	// %.17g byte for byte, without fmt boxing three floats per atom.
	for i := 0; i < pos.Len(); i++ {
		b = append(b[:0], x.symbol...)
		for _, v := range [3]float64{pos.X[i], pos.Y[i], pos.Z[i]} {
			b = strconv.AppendFloat(append(b, ' '), v, 'g', 17, 64)
		}
		b = append(b, '\n')
		if _, err := x.w.Write(b); err != nil {
			return err
		}
	}
	x.line = b
	x.frames++
	return nil
}

// Frames returns the number of frames written.
func (x *XYZWriter) Frames() int { return x.frames }

// Flush drains the buffer; call before closing the destination.
func (x *XYZWriter) Flush() error { return x.w.Flush() }

// XYZFrame is one parsed snapshot.
type XYZFrame struct {
	Comment string
	Symbols []string
	Pos     []vec.V3[float64]
}

// XYZReader parses frames from an io.Reader.
type XYZReader struct {
	s    *bufio.Scanner
	line int
}

// NewXYZReader wraps r.
func NewXYZReader(r io.Reader) *XYZReader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 1024*1024), 1024*1024)
	return &XYZReader{s: s}
}

func (x *XYZReader) next() (string, bool) {
	if !x.s.Scan() {
		return "", false
	}
	x.line++
	return x.s.Text(), true
}

// ReadFrame parses the next frame; io.EOF signals a clean end.
func (x *XYZReader) ReadFrame() (*XYZFrame, error) {
	header, ok := x.next()
	if !ok {
		if err := x.s.Err(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	n, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("md: line %d: bad atom count %q", x.line, header)
	}
	comment, ok := x.next()
	if !ok {
		return nil, fmt.Errorf("md: line %d: truncated frame (missing comment)", x.line)
	}
	f := &XYZFrame{Comment: comment, Symbols: make([]string, 0, n), Pos: make([]vec.V3[float64], 0, n)}
	for i := 0; i < n; i++ {
		line, ok := x.next()
		if !ok {
			return nil, fmt.Errorf("md: line %d: truncated frame (%d of %d atoms)", x.line, i, n)
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("md: line %d: want 'sym x y z', got %q", x.line, line)
		}
		px, err1 := strconv.ParseFloat(fields[1], 64)
		py, err2 := strconv.ParseFloat(fields[2], 64)
		pz, err3 := strconv.ParseFloat(fields[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("md: line %d: bad coordinates %q", x.line, line)
		}
		f.Symbols = append(f.Symbols, fields[0])
		f.Pos = append(f.Pos, vec.V3[float64]{X: px, Y: py, Z: pz})
	}
	return f, nil
}

// ReadAll parses every remaining frame.
func (x *XYZReader) ReadAll() ([]*XYZFrame, error) {
	var frames []*XYZFrame
	for {
		f, err := x.ReadFrame()
		if err == io.EOF {
			return frames, nil
		}
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
}
