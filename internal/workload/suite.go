package workload

import (
	"fmt"

	"additivity/internal/stats"
)

// diverseCtors builds the Class A application suite, in suite order:
// memory-bound and compute-bound scientific kernels (MKL DGEMM/FFT,
// NAS-style kernels, HPCG), stress, and non-optimised /
// non-scientific programs.
var diverseCtors = []func() *Kernel{
	DGEMM, FFT,
	NASEP, NASCG, NASMG, NASFT, NASLU, NASIS,
	HPCG, StressCPU, Stream,
	Quicksort, ZipCompress, MonteCarlo, Transpose, GraphBFS,
}

// diverseByName indexes diverseCtors by workload name, so a lookup
// builds only the kernel it returns.
var diverseByName = func() map[string]func() *Kernel {
	m := make(map[string]func() *Kernel, len(diverseCtors))
	for _, ctor := range diverseCtors {
		m[ctor().Name()] = ctor
	}
	return m
}()

// DiverseSuite returns the Class A application suite: sixteen
// workloads whose default sizes yield exactly 277 base applications.
func DiverseSuite() []Workload {
	out := make([]Workload, len(diverseCtors))
	for i, ctor := range diverseCtors {
		out[i] = ctor()
	}
	return out
}

// ApplicationSuite returns the Class B/C suite: the two highly optimised
// MKL kernels.
func ApplicationSuite() []Workload {
	return []Workload{DGEMM(), FFT()}
}

// ByName returns the suite workload with the given name. Each call
// builds a fresh kernel, so a caller may SetPost on it without
// affecting later lookups.
func ByName(name string) (Workload, error) {
	if ctor, ok := diverseByName[name]; ok {
		return ctor(), nil
	}
	return nil, fmt.Errorf("workload: unknown workload %q", name)
}

// BaseApps expands every workload in the suite over its default sizes:
// the base-application dataset.
func BaseApps(suite []Workload) []App {
	var apps []App
	for _, w := range suite {
		for _, n := range w.DefaultSizes() {
			apps = append(apps, App{Workload: w, Size: n})
		}
	}
	return apps
}

// RandomCompounds builds count compound applications by pairing distinct
// base applications pseudo-randomly (seeded — the paper's compound test
// sets are fixed). Pairs are drawn without replacement within a compound
// but apps may appear in several compounds.
func RandomCompounds(base []App, count int, seed int64) []CompoundApp {
	if len(base) < 2 {
		panic("workload: need at least two base apps to compound")
	}
	g := stats.SplitSeed(seed, "compounds")
	out := make([]CompoundApp, 0, count)
	for len(out) < count {
		i := g.Intn(len(base))
		j := g.Intn(len(base))
		if i == j {
			continue
		}
		out = append(out, CompoundApp{Parts: []App{base[i], base[j]}})
	}
	return out
}

// SizeSweep returns the apps for one workload across an inclusive size
// range with a constant step — the construction of the Class B model
// dataset (e.g. DGEMM 6400..38400 step 64).
func SizeSweep(w Workload, lo, hi, step int) []App {
	var out []App
	for n := lo; n <= hi; n += step {
		out = append(out, App{Workload: w, Size: n})
	}
	return out
}
