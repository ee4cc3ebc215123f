package workload

import (
	"math"
	"testing"

	"additivity/internal/activity"
	"additivity/internal/platform"
	"additivity/internal/stats"
)

func TestDiverseSuiteYields277BasePoints(t *testing.T) {
	apps := BaseApps(DiverseSuite())
	if len(apps) != 277 {
		t.Errorf("Class A base dataset = %d points, want 277 (paper)", len(apps))
	}
}

func TestSuiteNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range DiverseSuite() {
		if seen[w.Name()] {
			t.Errorf("duplicate workload %q", w.Name())
		}
		seen[w.Name()] = true
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mkl-dgemm")
	if err != nil || w.Name() != "mkl-dgemm" {
		t.Errorf("ByName = %v, %v", w, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown workload did not error")
	}
}

// TestByNameResolvesSuiteFresh holds the lookup contract the catalog
// index must keep: every DiverseSuite workload resolves by name to the
// same model the suite builds, and each call returns its own kernel,
// so a SetPost on one result never reaches the next lookup.
func TestByNameResolvesSuiteFresh(t *testing.T) {
	spec := platform.Haswell()
	for _, want := range DiverseSuite() {
		name := want.Name()
		got, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		n := want.DefaultSizes()[0]
		if got.Name() != name || got.Profile(n, spec) != want.Profile(n, spec) {
			t.Errorf("ByName(%q) differs from the suite's model", name)
		}
		k, ok := got.(*Kernel)
		if !ok {
			t.Fatalf("ByName(%q) returned %T, want *Kernel", name, got)
		}
		k.SetPost(func(_ float64, _ *platform.Spec, v *activity.Vector) {
			v.Set(activity.Instructions, -1)
		})
		if k.Profile(n, spec) == want.Profile(n, spec) {
			t.Fatalf("SetPost on %q had no effect; the leak check below would prove nothing", name)
		}
		again, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if again.(*Kernel) == k {
			t.Errorf("ByName(%q) returned the same *Kernel twice", name)
		}
		if again.Profile(n, spec) != want.Profile(n, spec) {
			t.Errorf("SetPost on one ByName(%q) result leaked into the next", name)
		}
	}
	for _, name := range []string{"", "nope", "MKL-DGEMM", "kmeans"} {
		if w, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) = %s, want an error", name, w.Name())
		}
	}
}

func TestProfilesNonNegativeEverywhere(t *testing.T) {
	for _, spec := range platform.Platforms() {
		for _, w := range DiverseSuite() {
			for _, n := range w.DefaultSizes() {
				v := w.Profile(n, spec)
				if !v.NonNegative() {
					t.Errorf("%s/%d on %s has negative activity: %v",
						w.Name(), n, spec.Name, v)
				}
			}
		}
	}
}

func TestProfileMonotoneInSize(t *testing.T) {
	spec := platform.Haswell()
	for _, w := range DiverseSuite() {
		sizes := w.DefaultSizes()
		prev := w.Profile(sizes[0], spec)
		for _, n := range sizes[1:] {
			cur := w.Profile(n, spec)
			if cur.Get(activity.Instructions) <= prev.Get(activity.Instructions) {
				t.Errorf("%s: instructions not increasing at size %d", w.Name(), n)
			}
			if cur.Get(activity.Cycles) <= prev.Get(activity.Cycles) {
				t.Errorf("%s: cycles not increasing at size %d", w.Name(), n)
			}
			prev = cur
		}
	}
}

func TestDGEMMFlopCount(t *testing.T) {
	d := DGEMM()
	spec := platform.Haswell()
	n := 4096
	v := d.Profile(n, spec)
	wantFlops := 2 * math.Pow(float64(n), 3)
	got := v.Get(activity.FPDouble)
	if math.Abs(got-wantFlops)/wantFlops > 0.02 {
		t.Errorf("DGEMM flops = %.3g, want ≈ %.3g", got, wantFlops)
	}
}

func TestUopStreamDecomposition(t *testing.T) {
	// DSB + MITE + MS uops must equal issued uops for every workload.
	spec := platform.Skylake()
	for _, w := range DiverseSuite() {
		n := w.DefaultSizes()[0]
		v := w.Profile(n, spec)
		sum := v.Get(activity.DSBUops) + v.Get(activity.MITEUops) + v.Get(activity.MSUops)
		issued := v.Get(activity.UopsIssued)
		if math.Abs(sum-issued)/issued > 1e-9 {
			t.Errorf("%s: uop streams sum %.6g != issued %.6g", w.Name(), sum, issued)
		}
	}
}

func TestCacheMissChainOrdered(t *testing.T) {
	// Misses must not increase down the hierarchy: L1 >= L2 >= L3.
	spec := platform.Haswell()
	for _, w := range DiverseSuite() {
		n := w.DefaultSizes()[len(w.DefaultSizes())-1]
		v := w.Profile(n, spec)
		l1, l2, l3 := v.Get(activity.L1DMiss), v.Get(activity.L2Miss), v.Get(activity.L3Miss)
		if l2 > l1 || l3 > l2 {
			t.Errorf("%s: miss chain out of order: L1=%.3g L2=%.3g L3=%.3g",
				w.Name(), l1, l2, l3)
		}
	}
}

func TestLargerCachesReduceMisses(t *testing.T) {
	// Skylake's 4× larger L2 must convert some Haswell L2 misses to hits.
	w := Stream()
	n := w.DefaultSizes()[8]
	h := w.Profile(n, platform.Haswell())
	s := w.Profile(n, platform.Skylake())
	if s.Get(activity.L2Miss) >= h.Get(activity.L2Miss) {
		t.Errorf("Skylake L2 misses %.3g >= Haswell %.3g",
			s.Get(activity.L2Miss), h.Get(activity.L2Miss))
	}
}

func TestDividerUsageConcentrated(t *testing.T) {
	// Most suite applications must have (near-)zero divider activity —
	// this is what makes ARITH_DIVIDER_COUNT so non-additive relative to
	// per-run startup overhead in the paper's Table 2.
	spec := platform.Haswell()
	zero := 0
	for _, w := range DiverseSuite() {
		v := w.Profile(w.DefaultSizes()[0], spec)
		if v.Get(activity.DivOps) == 0 {
			zero++
		}
	}
	if zero < 10 {
		t.Errorf("only %d/16 workloads have zero divider activity; want >= 10", zero)
	}
	// And at least one workload must exercise the divider heavily.
	mc := MonteCarlo().Profile(64, spec)
	if mc.Get(activity.DivOps) <= 0 {
		t.Error("montecarlo has no divider activity")
	}
}

func TestAppAndCompoundNames(t *testing.T) {
	a := App{Workload: DGEMM(), Size: 4096}
	if a.Name() != "mkl-dgemm/4096" {
		t.Errorf("App.Name = %q", a.Name())
	}
	c := CompoundApp{Parts: []App{a, {Workload: FFT(), Size: 8192}}}
	if c.Name() != "mkl-dgemm/4096+mkl-fft/8192" {
		t.Errorf("CompoundApp.Name = %q", c.Name())
	}
}

func TestCompoundProfileIsSumOfParts(t *testing.T) {
	spec := platform.Haswell()
	a := App{Workload: DGEMM(), Size: 2048}
	b := App{Workload: Quicksort(), Size: 16}
	c := CompoundApp{Parts: []App{a, b}}
	sum := a.Profile(spec).Add(b.Profile(spec))
	got := c.Profile(spec)
	for _, ch := range activity.Channels() {
		if math.Abs(got.Get(ch)-sum.Get(ch)) > 1e-6*math.Max(1, sum.Get(ch)) {
			t.Errorf("channel %s: compound %.6g != sum %.6g", ch, got.Get(ch), sum.Get(ch))
		}
	}
}

func TestCompoundDataBytesIsMax(t *testing.T) {
	a := App{Workload: DGEMM(), Size: 4096}  // 3*8*4096² ≈ 4.0e8
	b := App{Workload: Quicksort(), Size: 8} // 6.4e7
	c := CompoundApp{Parts: []App{a, b}}
	if got, want := c.DataBytes(), a.Workload.DataBytes(4096); !stats.SameFloat(got, want) {
		t.Errorf("compound DataBytes = %.3g, want %.3g", got, want)
	}
}

func TestRandomCompoundsDeterministicAndDistinct(t *testing.T) {
	base := BaseApps(DiverseSuite())
	c1 := RandomCompounds(base, 50, 42)
	c2 := RandomCompounds(base, 50, 42)
	if len(c1) != 50 {
		t.Fatalf("got %d compounds", len(c1))
	}
	for i := range c1 {
		if c1[i].Name() != c2[i].Name() {
			t.Fatalf("compound %d differs across same-seed runs", i)
		}
		if c1[i].Parts[0].Name() == c1[i].Parts[1].Name() {
			t.Errorf("compound %d pairs an app with itself", i)
		}
	}
	c3 := RandomCompounds(base, 50, 43)
	same := 0
	for i := range c1 {
		if c1[i].Name() == c3[i].Name() {
			same++
		}
	}
	if same == 50 {
		t.Error("different seeds produced identical compound sets")
	}
}

func TestRandomCompoundsPanicsOnTinyBase(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomCompounds with 1 base app did not panic")
		}
	}()
	RandomCompounds([]App{{Workload: DGEMM(), Size: 128}}, 3, 1)
}

func TestSizeSweepMatchesClassBCounts(t *testing.T) {
	dgemm := SizeSweep(DGEMM(), 6400, 38400, 64)
	fft := SizeSweep(FFT(), 22400, 41536, 64)
	if len(dgemm) != 501 {
		t.Errorf("DGEMM sweep = %d points, want 501", len(dgemm))
	}
	if len(fft) != 300 {
		t.Errorf("FFT sweep = %d points, want 300", len(fft))
	}
	if len(dgemm)+len(fft) != 801 {
		t.Errorf("Class B dataset = %d points, want 801 (paper)", len(dgemm)+len(fft))
	}
}

func TestClassString(t *testing.T) {
	if ClassCompute.String() != "compute" || ClassSynthetic.String() != "synthetic" {
		t.Error("class names wrong")
	}
	if got := Class(9).String(); got != "class(9)" {
		t.Errorf("unknown class = %q", got)
	}
}
