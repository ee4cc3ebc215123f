package platform

import (
	"strings"
	"testing"

	"additivity/internal/stats"
)

func TestTable1Specs(t *testing.T) {
	h := Haswell()
	if h.TotalCores() != 24 {
		t.Errorf("Haswell cores = %d, want 24", h.TotalCores())
	}
	if h.TotalThreads() != 48 {
		t.Errorf("Haswell threads = %d, want 48", h.TotalThreads())
	}
	if h.L2KB != 256 || h.L3KB != 30720 || h.MemoryGB != 64 {
		t.Errorf("Haswell cache/memory = %d/%d/%d", h.L2KB, h.L3KB, h.MemoryGB)
	}
	if !stats.SameFloat(h.TDPWatts, 240) || !stats.SameFloat(h.IdleWatts, 58) {
		t.Errorf("Haswell power = %v/%v", h.TDPWatts, h.IdleWatts)
	}

	s := Skylake()
	if s.TotalCores() != 22 || s.Sockets != 1 {
		t.Errorf("Skylake cores/sockets = %d/%d", s.TotalCores(), s.Sockets)
	}
	if s.L2KB != 1024 || s.L3KB != 30976 || s.MemoryGB != 96 {
		t.Errorf("Skylake cache/memory = %d/%d/%d", s.L2KB, s.L3KB, s.MemoryGB)
	}
	if !stats.SameFloat(s.TDPWatts, 140) || !stats.SameFloat(s.IdleWatts, 32) {
		t.Errorf("Skylake power = %v/%v", s.TDPWatts, s.IdleWatts)
	}
	for _, p := range Platforms() {
		if p.Registers != 4 {
			t.Errorf("%s registers = %d, want 4", p.Name, p.Registers)
		}
		if !strings.Contains(p.String(), p.Microarch) {
			t.Errorf("%s String() = %q missing microarch", p.Name, p.String())
		}
	}
}

func TestByName(t *testing.T) {
	if p, err := ByName("haswell"); err != nil || p.Name != "haswell" {
		t.Errorf("ByName(haswell) = %v, %v", p, err)
	}
	if p, err := ByName("skylake"); err != nil || p.Name != "skylake" {
		t.Errorf("ByName(skylake) = %v, %v", p, err)
	}
	if _, err := ByName("zen4"); err == nil {
		t.Error("ByName(zen4) should fail")
	}
}

// TestCheckNameAgreesWithByName: CheckName accepts exactly the names
// ByName resolves and fails with ByName's error otherwise.
func TestCheckNameAgreesWithByName(t *testing.T) {
	for _, name := range []string{"haswell", "skylake", "zen4", "", "Haswell"} {
		_, want := ByName(name)
		got := CheckName(name)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("CheckName(%q) = %v, ByName error = %v", name, got, want)
		}
	}
}

func TestCatalogSizesMatchPaper(t *testing.T) {
	cases := []struct {
		spec          *Spec
		total, reduce int
	}{
		{Haswell(), 164, 151},
		{Skylake(), 385, 323},
	}
	for _, c := range cases {
		t.Run(c.spec.Name, func(t *testing.T) {
			full := Catalog(c.spec)
			if len(full) != c.total {
				t.Errorf("catalog size = %d, want %d", len(full), c.total)
			}
			red := ReducedCatalog(c.spec)
			if len(red) != c.reduce {
				t.Errorf("reduced size = %d, want %d", len(red), c.reduce)
			}
		})
	}
}

func TestCatalogNoDuplicatesAndValidSlots(t *testing.T) {
	for _, spec := range Platforms() {
		seen := map[string]bool{}
		for _, e := range Catalog(spec) {
			if seen[e.Name] {
				t.Errorf("%s: duplicate event %q", spec.Name, e.Name)
			}
			seen[e.Name] = true
			if e.Slots != 1 && e.Slots != 2 && e.Slots != 4 {
				t.Errorf("%s: event %q slots = %d", spec.Name, e.Name, e.Slots)
			}
			if e.Name == "" {
				t.Errorf("%s: empty event name", spec.Name)
			}
		}
	}
}

func TestCatalogContainsPaperPMCs(t *testing.T) {
	classA := []string{
		"IDQ_MITE_UOPS", "IDQ_MS_UOPS", "ICACHE_64B_IFTAG_MISS",
		"ARITH_DIVIDER_COUNT", "L2_RQSTS_MISS", "UOPS_EXECUTED_PORT_PORT_6",
	}
	h := Haswell()
	for _, name := range classA {
		e, err := FindEvent(h, name)
		if err != nil {
			t.Errorf("haswell missing %s: %v", name, err)
			continue
		}
		if e.LowCount {
			t.Errorf("haswell %s flagged low-count", name)
		}
	}

	classBC := []string{
		// PA
		"UOPS_RETIRED_CYCLES_GE_4_UOPS_EXEC", "FP_ARITH_INST_RETIRED_DOUBLE",
		"MEM_INST_RETIRED_ALL_STORES", "UOPS_EXECUTED_CORE",
		"UOPS_DISPATCHED_PORT_PORT_4", "IDQ_DSB_CYCLES_6_UOPS",
		"IDQ_ALL_DSB_CYCLES_5_UOPS", "IDQ_ALL_CYCLES_6_UOPS",
		"MEM_LOAD_RETIRED_L3_MISS",
		// PNA
		"ICACHE_64B_IFTAG_MISS", "CPU_CLOCK_THREAD_UNHALTED",
		"BR_MISP_RETIRED_ALL_BRANCHES", "MEM_LOAD_L3_HIT_RETIRED_XSNP_MISS",
		"FRONTEND_RETIRED_L2_MISS", "ITLB_MISSES_STLB_HIT",
		"L2_TRANS_CODE_RD", "IDQ_MS_UOPS", "ARITH_DIVIDER_COUNT",
	}
	s := Skylake()
	for _, name := range classBC {
		e, err := FindEvent(s, name)
		if err != nil {
			t.Errorf("skylake missing %s: %v", name, err)
			continue
		}
		if e.LowCount {
			t.Errorf("skylake %s flagged low-count", name)
		}
		if e.Slots != 1 {
			t.Errorf("skylake %s slots = %d, want 1 (must be co-schedulable)", name, e.Slots)
		}
	}
}

func TestFindEventUnknown(t *testing.T) {
	if _, err := FindEvent(Haswell(), "NOT_A_COUNTER"); err == nil {
		t.Error("unknown event did not error")
	}
}

func TestCatalogDeterministic(t *testing.T) {
	a := Catalog(Skylake())
	b := Catalog(Skylake())
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("catalog not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReducedSlotClassCounts(t *testing.T) {
	// The slot-class mix is what makes full collection take 53 runs on
	// Haswell and 99 on Skylake (verified end-to-end in internal/pmc).
	type counts struct{ w1, w2, w4 int }
	want := map[string]counts{
		"haswell": {111, 30, 10},
		"skylake": {280, 28, 15},
	}
	for _, spec := range Platforms() {
		var got counts
		for _, e := range ReducedCatalog(spec) {
			switch e.Slots {
			case 1:
				got.w1++
			case 2:
				got.w2++
			case 4:
				got.w4++
			}
		}
		if got != want[spec.Name] {
			t.Errorf("%s slot classes = %+v, want %+v", spec.Name, got, want[spec.Name])
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CatFrontEnd.String() != "frontend" || CatUncore.String() != "uncore" {
		t.Error("category names wrong")
	}
	if got := Category(99).String(); got != "category(99)" {
		t.Errorf("unknown category = %q", got)
	}
}
