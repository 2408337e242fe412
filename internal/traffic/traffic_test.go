package traffic

import (
	"math/rand"
	"testing"
	"time"
)

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := []Spec{
		{Kind: "poisson"},
		{Kind: Zipf, ZipfS: 1.0},
		{Kind: Zipf, ZipfS: 0.5},
		{Kind: Zipf, ZipfV: 0.5},
		{Kind: Burst, BurstOn: -time.Millisecond},
		{Kind: Burst, BurstOff: -time.Millisecond},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
	good := []Spec{
		{},
		{Kind: Uniform},
		{Kind: Zipf},
		{Kind: Zipf, ZipfS: 1.4, ZipfV: 2},
		{Kind: Burst},
		{Kind: Burst, BurstOn: time.Millisecond, BurstOff: 4 * time.Millisecond},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", s, err)
		}
	}
}

func TestUniformPickerMatchesPlainIntn(t *testing.T) {
	// The zero Spec must reproduce the exact sequence rand.Intn would have
	// produced, so wiring a Picker into an existing uniform load generator
	// changes nothing for default flags.
	p := NewPicker(Spec{}, 42, 8)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		if got, want := p.Next(), rng.Intn(8); got != want {
			t.Fatalf("draw %d: picker %d != rand.Intn %d", i, got, want)
		}
	}
}

func TestPickerDeterministicUnderSeed(t *testing.T) {
	for _, s := range []Spec{{}, {Kind: Zipf, ZipfS: 1.4}} {
		a, b := NewPicker(s, 7, 16), NewPicker(s, 7, 16)
		for i := 0; i < 1000; i++ {
			if x, y := a.Next(), b.Next(); x != y {
				t.Fatalf("%q shape diverged at draw %d: %d != %d", s.Kind, i, x, y)
			}
		}
	}
}

func TestZipfPickerIsSkewed(t *testing.T) {
	p := NewPicker(Spec{Kind: Zipf, ZipfS: 1.4}, 11, 8)
	counts := make([]int, 8)
	const n = 100000
	for i := 0; i < n; i++ {
		d := p.Next()
		if d < 0 || d >= 8 {
			t.Fatalf("draw out of range: %d", d)
		}
		counts[d]++
	}
	if counts[0] < n/3 {
		t.Fatalf("dest 0 got %d of %d draws; want a hot head (> a third)", counts[0], n)
	}
	if counts[7] == 0 {
		t.Fatalf("dest 7 never drawn; want a long tail, not truncation")
	}
	if counts[7] >= counts[0] {
		t.Fatalf("tail %d >= head %d; not skewed", counts[7], counts[0])
	}
}

func TestGateAlwaysOpenForNonBurst(t *testing.T) {
	origin := time.Unix(0, 0)
	for _, s := range []Spec{{}, {Kind: Zipf}} {
		g := NewGate(s, origin)
		for _, off := range []time.Duration{0, time.Millisecond, time.Hour} {
			if w := g.Wait(origin.Add(off)); w != 0 {
				t.Fatalf("%q gate closed at +%v: wait %v", s.Kind, off, w)
			}
		}
	}
}

func TestGateDutyCycle(t *testing.T) {
	origin := time.Unix(1000, 0)
	g := NewGate(Spec{Kind: Burst, BurstOn: 2 * time.Millisecond, BurstOff: 8 * time.Millisecond}, origin)
	cases := []struct {
		off  time.Duration
		wait time.Duration
	}{
		{0, 0},                // start of on phase
		{time.Millisecond, 0}, // mid on phase
		{2 * time.Millisecond, 8 * time.Millisecond},  // first instant of off phase
		{6 * time.Millisecond, 4 * time.Millisecond},  // mid off phase
		{10 * time.Millisecond, 0},                    // next cycle's on phase
		{12 * time.Millisecond, 8 * time.Millisecond}, // next cycle's off phase
		{-3 * time.Millisecond, 3 * time.Millisecond}, // before origin: 7ms into prior cycle's off phase
	}
	for _, c := range cases {
		if got := g.Wait(origin.Add(c.off)); got != c.wait {
			t.Fatalf("Wait at +%v = %v, want %v", c.off, got, c.wait)
		}
	}
	// The wait always lands inside the on phase.
	for off := time.Duration(0); off < 40*time.Millisecond; off += 137 * time.Microsecond {
		now := origin.Add(off)
		w := g.Wait(now)
		if w2 := g.Wait(now.Add(w)); w2 != 0 {
			t.Fatalf("gate still closed after waiting %v from +%v (extra %v)", w, off, w2)
		}
	}
}
