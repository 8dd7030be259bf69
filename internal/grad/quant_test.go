package grad

import (
	"math"
	"testing"
	"testing/quick"

	"kgedist/internal/xrand"
)

func randGrad(rng *xrand.RNG, rows, width int) *SparseGrad {
	g := NewSparseGrad(width)
	for i := 0; i < rows; i++ {
		row := g.Row(int32(i * 3)) // non-contiguous ids
		for j := range row {
			row[j] = float32(rng.NormFloat64())
		}
	}
	return g
}

func TestOneBitMaxRoundTrip(t *testing.T) {
	t.Parallel()
	rng := xrand.New(1)
	g := randGrad(rng, 10, 16)
	e := Quantize(g, OneBitMax, nil)
	dst := NewSparseGrad(16)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, ok := dst.Get(id)
		if !ok {
			t.Fatalf("row %d missing after round trip", id)
		}
		max := float32(0)
		for _, v := range row {
			if a := float32(math.Abs(float64(v))); a > max {
				max = a
			}
		}
		for i, v := range row {
			// Sign preserved (zero maps to +scale by convention).
			if v > 0 && dec[i] <= 0 || v < 0 && dec[i] >= 0 {
				t.Fatalf("sign flipped at row %d col %d: %v -> %v", id, i, v, dec[i])
			}
			// Magnitude equals the row max.
			if math.Abs(math.Abs(float64(dec[i]))-float64(max)) > 1e-6 {
				t.Fatalf("magnitude %v != max %v", dec[i], max)
			}
		}
	})
}

func TestOneBitVariantsScales(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(4)
	copy(g.Row(0), []float32{-4, -2, 1, 3})
	check := func(s Scheme, want float32) {
		t.Helper()
		e := Quantize(g, s, nil)
		if math.Abs(float64(e.Scales[0]-want)) > 1e-6 {
			t.Fatalf("%v scale = %v, want %v", s, e.Scales[0], want)
		}
	}
	check(OneBitMax, 4)
	check(OneBitAvg, (4+2+1+3)/4.0)
	check(OneBitPosMax, 3)
	check(OneBitNegMax, 4)
	check(OneBitPosAvg, 2)
	check(OneBitNegAvg, 3)
}

func TestOneBitSignRestrictedFallback(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(3)
	copy(g.Row(0), []float32{1, 2, 3}) // no negative values
	e := Quantize(g, OneBitNegMax, nil)
	if e.Scales[0] != 3 { // falls back to max(|v|)
		t.Fatalf("fallback scale = %v", e.Scales[0])
	}
}

func TestTwoBitTernaryProperties(t *testing.T) {
	t.Parallel()
	rng := xrand.New(3)
	g := randGrad(rng, 20, 32)
	e := Quantize(g, TwoBitTernary, rng)
	dst := NewSparseGrad(32)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, _ := dst.Get(id)
		mean := float32(0)
		for _, v := range row {
			mean += float32(math.Abs(float64(v)))
		}
		mean /= float32(len(row))
		for i, v := range row {
			d := dec[i]
			// Ternary: value is 0 or +-mean.
			if d != 0 && math.Abs(math.Abs(float64(d))-float64(mean)) > 1e-6 {
				t.Fatalf("non-ternary value %v (mean %v)", d, mean)
			}
			// Non-zero decoded values preserve the sign.
			if d > 0 && v < 0 || d < 0 && v > 0 {
				t.Fatalf("ternary sign flip: %v -> %v", v, d)
			}
			// Values with |v| >= mean are never zeroed.
			if math.Abs(float64(v)) >= float64(mean) && d == 0 {
				t.Fatalf("large value %v zeroed (mean %v)", v, mean)
			}
		}
	})
}

func TestTwoBitTernaryUnbiasedExpectation(t *testing.T) {
	t.Parallel()
	// E[q_i] = sign(v) * mean * min(1,|v|/mean) = v for |v| <= mean.
	rng := xrand.New(5)
	g := NewSparseGrad(2)
	copy(g.Row(0), []float32{0.5, 1.5}) // mean = 1.0
	const trials = 20000
	var sum0, sum1 float64
	for i := 0; i < trials; i++ {
		e := Quantize(g, TwoBitTernary, rng)
		dst := NewSparseGrad(2)
		Dequantize(e, dst)
		dec, _ := dst.Get(0)
		sum0 += float64(dec[0])
		sum1 += float64(dec[1])
	}
	if math.Abs(sum0/trials-0.5) > 0.02 {
		t.Fatalf("E[q0] = %v, want 0.5", sum0/trials)
	}
	// |v| > mean saturates at mean.
	if math.Abs(sum1/trials-1.0) > 0.02 {
		t.Fatalf("E[q1] = %v, want 1.0 (saturated)", sum1/trials)
	}
}

func TestNoQuantRoundTripExact(t *testing.T) {
	t.Parallel()
	rng := xrand.New(7)
	g := randGrad(rng, 8, 10)
	e := Quantize(g, NoQuant, nil)
	dst := NewSparseGrad(10)
	Dequantize(e, dst)
	g.ForEach(func(id int32, row []float32) {
		dec, _ := dst.Get(id)
		for i := range row {
			if row[i] != dec[i] {
				t.Fatalf("NoQuant not exact at %d/%d", id, i)
			}
		}
	})
}

func TestWireBytesCompression(t *testing.T) {
	t.Parallel()
	rng := xrand.New(9)
	g := randGrad(rng, 50, 64)
	full := Quantize(g, NoQuant, nil).WireBytes()
	oneBit := Quantize(g, OneBitMax, nil).WireBytes()
	twoBit := Quantize(g, TwoBitTernary, rng).WireBytes()
	// 1-bit payload should be dramatically smaller; with 64-wide rows the
	// index+scale overhead still leaves >10x compression.
	if float64(full)/float64(oneBit) < 10 {
		t.Fatalf("1-bit compression only %vx (%d vs %d)", float64(full)/float64(oneBit), full, oneBit)
	}
	if oneBit >= twoBit {
		t.Fatalf("1-bit (%d) not smaller than 2-bit (%d)", oneBit, twoBit)
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	t.Parallel()
	rng := xrand.New(11)
	for _, s := range []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary} {
		g := randGrad(rng, 6, 9) // odd width exercises bit padding
		e := Quantize(g, s, rng)
		buf := e.Marshal()
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%v: Unmarshal: %v", s, err)
		}
		if got.Scheme != e.Scheme || got.Width != e.Width {
			t.Fatalf("%v: header mismatch", s)
		}
		if len(got.Indices) != len(e.Indices) {
			t.Fatalf("%v: indices differ", s)
		}
		for i := range e.Indices {
			if got.Indices[i] != e.Indices[i] || got.Scales[i] != e.Scales[i] {
				t.Fatalf("%v: row %d metadata differs", s, i)
			}
		}
		for i := range e.Bits {
			if got.Bits[i] != e.Bits[i] {
				t.Fatalf("%v: payload differs at byte %d", s, i)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	t.Parallel()
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil buffer accepted")
	}
	if _, err := Unmarshal(make([]byte, 5)); err == nil {
		t.Fatal("short buffer accepted")
	}
	g := NewSparseGrad(4)
	g.Row(0)[0] = 1
	buf := Quantize(g, OneBitMax, nil).Marshal()
	if _, err := Unmarshal(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
}

func TestSchemeStringsAndBits(t *testing.T) {
	t.Parallel()
	if NoQuant.BitsPerValue() != 32 || OneBitMax.BitsPerValue() != 1 || TwoBitTernary.BitsPerValue() != 2 {
		t.Fatal("BitsPerValue wrong")
	}
	names := map[Scheme]string{
		NoQuant: "none", OneBitMax: "1bit-max", OneBitAvg: "1bit-avg",
		OneBitPosMax: "1bit-posmax", OneBitNegMax: "1bit-negmax",
		OneBitPosAvg: "1bit-posavg", OneBitNegAvg: "1bit-negavg",
		TwoBitTernary: "2bit-ternary", Scheme(200): "unknown",
	}
	for s, want := range names {
		if s.String() != want {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestEmptyGradientQuantize(t *testing.T) {
	t.Parallel()
	g := NewSparseGrad(8)
	e := Quantize(g, OneBitMax, nil)
	if len(e.Indices) != 0 || e.WireBytes() != 0 {
		t.Fatalf("empty encode: %d rows, %d bytes", len(e.Indices), e.WireBytes())
	}
	buf := e.Marshal()
	got, err := Unmarshal(buf)
	if err != nil || len(got.Indices) != 0 {
		t.Fatalf("empty round trip: %v", err)
	}
}

// Property: for the whole 1-bit family, |decoded| is constant per row and
// signs match the input; Marshal/Unmarshal is the identity.
func TestQuickOneBitFamily(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{OneBitMax, OneBitAvg, OneBitPosMax, OneBitNegMax, OneBitPosAvg, OneBitNegAvg}
	f := func(seed uint64, widthRaw uint8, schemeIdx uint8) bool {
		width := int(widthRaw%31) + 1
		s := schemes[int(schemeIdx)%len(schemes)]
		rng := xrand.New(seed)
		g := randGrad(rng, 5, width)
		e := Quantize(g, s, nil)
		buf := e.Marshal()
		e2, err := Unmarshal(buf)
		if err != nil {
			return false
		}
		dst := NewSparseGrad(width)
		Dequantize(e2, dst)
		ok := true
		g.ForEach(func(id int32, row []float32) {
			dec, found := dst.Get(id)
			if !found {
				ok = false
				return
			}
			for i, v := range row {
				if v > 0 && dec[i] < 0 || v < 0 && dec[i] > 0 {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the encoded wire size follows the documented formula for every
// scheme — 4 bytes index + 4 bytes scale per row plus the packed payload.
func TestQuickWireBytesFormula(t *testing.T) {
	t.Parallel()
	schemes := []Scheme{NoQuant, OneBitMax, OneBitAvg, TwoBitTernary}
	f := func(seed uint64, rowsRaw, widthRaw, si uint8) bool {
		rows := int(rowsRaw % 20)
		width := int(widthRaw%33) + 1
		s := schemes[int(si)%len(schemes)]
		rng := xrand.New(seed)
		g := NewSparseGrad(width)
		for i := 0; i < rows; i++ {
			row := g.Row(int32(i))
			row[rng.Intn(width)] = rng.Float32() + 0.1
		}
		e := Quantize(g, s, rng)
		var per int
		switch s {
		case NoQuant:
			per = 4 * width
		case TwoBitTernary:
			per = (2*width + 7) / 8
		default:
			per = (width + 7) / 8
		}
		want := rows*4 + rows*per
		if s != NoQuant {
			want += rows * 4 // scales travel only for quantized schemes
		}
		return e.WireBytes() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: dequantized 1-bit payloads reconstruct rows whose sign pattern
// matches the packed bits regardless of row content.
func TestQuickOneBitIdempotentEncode(t *testing.T) {
	t.Parallel()
	f := func(seed uint64, widthRaw uint8) bool {
		width := int(widthRaw%16) + 1
		rng := xrand.New(seed)
		g := NewSparseGrad(width)
		row := g.Row(0)
		for i := range row {
			row[i] = float32(rng.NormFloat64())
		}
		e1 := Quantize(g, OneBitMax, nil)
		// Quantizing the dequantized gradient is a fixed point: signs and
		// scale survive a second round.
		dec := NewSparseGrad(width)
		Dequantize(e1, dec)
		e2 := Quantize(dec, OneBitMax, nil)
		if len(e1.Bits) != len(e2.Bits) {
			return false
		}
		for i := range e1.Bits {
			if e1.Bits[i] != e2.Bits[i] {
				return false
			}
		}
		return e1.Scales[0] == e2.Scales[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
