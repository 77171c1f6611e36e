package gpu

import "fmt"

// Multi-pass reduction: the design alternative the paper considers and
// rejects for the potential-energy sum (section 5.2). Shader
// invocations cannot communicate, so summing N per-atom values on the
// GPU takes a ladder of gather passes, each halving the array —
// "however, this method introduces significant overheads": every pass
// pays the dispatch cost, and the accelerations must cross PCIe anyway,
// which is why riding the PE home in the float4's w component wins.
// ReduceSum exists so that the ablation can measure exactly that.

// ReduceSum sums the x components of data with log2(N) halving passes
// and returns the sum, the pass count, and the modeled GPU seconds
// (compute + one dispatch per pass; the final one-texel readback is the
// caller's to account since it can share a transfer).
func (d *Device) ReduceSum(data []Float4) (sum float32, passes int, seconds float64) {
	if len(data) == 0 {
		return 0, 0, 0
	}
	cur := NewTexture("reduce", data)
	for cur.Len() > 1 {
		n := cur.Len()
		half := (n + 1) / 2
		shader := ShaderFunc(func(s *Sampler, i int) Float4 {
			a := s.Fetch("reduce", i)
			var b Float4
			if i+half < n {
				b = s.Fetch("reduce", i+half)
				s.ALU(1)
			}
			return Float4{a[0] + b[0], 0, 0, 0}
		})
		pass, err := NewPass(shader, half, cur)
		if err != nil {
			// Construction can only fail on programmer error (nil
			// shader / bad lengths), never for valid reductions.
			panic(fmt.Sprintf("gpu: reduction pass: %v", err))
		}
		out, sec := d.dispatch(pass)
		seconds += sec
		passes++
		cur = NewTexture("reduce", out)
	}
	return cur.At(0)[0], passes, seconds
}
