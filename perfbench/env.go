package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// environment is the block printed and stored with every run.
type environment struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// CacheFS is the filesystem type under the disk-backed caches the
	// traced run's memo layer metrics write to. The benchmark keeps every
	// file it writes inside its checkout, so they sit on whatever holds
	// the checkout: on a virtual disk fsync swings from run to run, on
	// tmpfs it costs next to nothing, and neither stands for a real
	// device.
	CacheFS string `json:"cache_fs"`
}

func readEnvironment(cacheRoot string) environment {
	env := environment{
		CPUModel:   "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		CacheFS:    fsType(cacheRoot),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(b))
	}
	return env
}

// fsType names the filesystem holding path by its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x794C7630: "overlayfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

func (e environment) String() string {
	return fmt.Sprintf("env cpu_model=%q nproc=%d gomaxprocs=%d go=%s kernel=%s cache_fs=%s",
		e.CPUModel, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Kernel, e.CacheFS)
}
