// Package platform models the two experimental machines of the paper
// (Table 1): an Intel Haswell dual-socket server and an Intel Skylake
// single-socket server, together with their performance-monitoring-unit
// event catalogs and counter-register constraints.
//
// The PMU model captures the constraint at the heart of the paper: a
// core exposes only a handful of programmable counter registers, so only
// 3–4 PMCs can be collected in a single application run, and some events
// occupy more than one register (or must be measured alone), which is why
// collecting the full catalog takes 53 application runs on Haswell and 99
// on Skylake.
package platform

import "fmt"

// Spec describes a multicore CPU platform (paper Table 1) plus the
// micro-architectural parameters the simulator needs.
type Spec struct {
	Name         string // short identifier: "haswell", "skylake"
	Processor    string
	OS           string
	Microarch    string
	ThreadsCore  int // threads per core
	CoresSocket  int // cores per socket
	Sockets      int
	NUMANodes    int
	L1dKB        int
	L1iKB        int
	L2KB         int
	L3KB         int
	MemoryGB     int
	TDPWatts     float64
	IdleWatts    float64
	BaseGHz      float64 // nominal core frequency
	Registers    int     // programmable PMC registers usable per run
	DecodeWidth  int     // front-end decode width (uops/cycle)
	DSBShare     float64 // fraction of issued uops served by the uop cache
	PeakIPC      float64 // sustained micro-op throughput per cycle
	MemLatCycles float64 // average memory access penalty in core cycles
}

// TotalCores returns the number of physical cores.
func (s *Spec) TotalCores() int { return s.CoresSocket * s.Sockets }

// TotalThreads returns the number of hardware threads.
func (s *Spec) TotalThreads() int { return s.TotalCores() * s.ThreadsCore }

// String implements fmt.Stringer.
func (s *Spec) String() string {
	return fmt.Sprintf("%s (%s, %d×%d cores @ %.2f GHz)",
		s.Processor, s.Microarch, s.Sockets, s.CoresSocket, s.BaseGHz)
}

// Haswell returns the dual-socket Intel Haswell server of Table 1
// (Intel E5-2670 v3 @ 2.30 GHz, 2×12 cores, 64 GB, TDP 240 W, idle 58 W).
func Haswell() *Spec {
	return &Spec{
		Name:         "haswell",
		Processor:    "Intel E5-2670 v3 @2.30GHz",
		OS:           "CentOS 7",
		Microarch:    "Haswell",
		ThreadsCore:  2,
		CoresSocket:  12,
		Sockets:      2,
		NUMANodes:    2,
		L1dKB:        32,
		L1iKB:        32,
		L2KB:         256,
		L3KB:         30720,
		MemoryGB:     64,
		TDPWatts:     240,
		IdleWatts:    58,
		BaseGHz:      2.30,
		Registers:    4,
		DecodeWidth:  4,
		DSBShare:     0.80,
		PeakIPC:      3.2,
		MemLatCycles: 230,
	}
}

// Skylake returns the single-socket Intel Skylake server of Table 1
// (Intel Xeon Gold 6152, 22 cores, 96 GB, TDP 140 W, idle 32 W).
func Skylake() *Spec {
	return &Spec{
		Name:         "skylake",
		Processor:    "Intel Xeon Gold 6152",
		OS:           "Ubuntu 16.04 LTS",
		Microarch:    "Skylake",
		ThreadsCore:  2,
		CoresSocket:  22,
		Sockets:      1,
		NUMANodes:    1,
		L1dKB:        32,
		L1iKB:        32,
		L2KB:         1024,
		L3KB:         30976,
		MemoryGB:     96,
		TDPWatts:     140,
		IdleWatts:    32,
		BaseGHz:      2.10,
		Registers:    4,
		DecodeWidth:  5,
		DSBShare:     0.85,
		PeakIPC:      3.6,
		MemLatCycles: 210,
	}
}

// ByName returns the preset platform with the given name.
func ByName(name string) (*Spec, error) {
	switch name {
	case "haswell":
		return Haswell(), nil
	case "skylake":
		return Skylake(), nil
	default:
		return nil, CheckName(name)
	}
}

// CheckName reports whether name is a preset platform without building
// its Spec: nil when ByName would succeed, ByName's error otherwise.
func CheckName(name string) error {
	switch name {
	case "haswell", "skylake":
		return nil
	default:
		return fmt.Errorf("platform: unknown platform %q (want haswell or skylake)", name)
	}
}

// Platforms returns all preset platforms.
func Platforms() []*Spec {
	return []*Spec{Haswell(), Skylake()}
}
