package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is as close to the start of the process as Go code gets;
// setup_s counts from it.
var processStart = time.Now()

// Host describes the machine and build a result was measured on.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	CPUModel   string `json:"cpu_model"`
	// GemmKernel is the dense micro-kernel the matrix package selects on
	// this CPU: its AVX assembly when the CPU has AVX, else pure Go.
	GemmKernel string `json:"gemm_kernel"`
	GitCommit  string `json:"git_commit"`
	// WorkFS is the filesystem under the work directory, where gnmf_ckpt
	// writes its checkpoints.
	WorkFS string `json:"work_fs"`
}

func hostInfo(workDir string) Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: childProcs(),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GitCommit:  "unknown",
		GemmKernel: "go",
		WorkFS:     fsName(workDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "GOAMD64":
				h.GOAMD64 = s.Value
			case "vcs.revision":
				h.GitCommit = s.Value
			}
		}
	}
	model, flags := cpuInfo()
	h.CPUModel = model
	if runtime.GOARCH == "amd64" && strings.Contains(" "+flags+" ", " avx ") {
		h.GemmKernel = "avx"
	}
	return h
}

// childProcs is the GOMAXPROCS every workload process runs with: the
// environment's when set, else min(nproc, 4).
func childProcs() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return min(runtime.NumCPU(), 4)
}

func cpuInfo() (model, flags string) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown", ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "" {
				flags = strings.TrimSpace(v)
			}
		}
	}
	if model == "" {
		model = "unknown"
	}
	return model, flags
}

func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return "0x" + strconv.FormatUint(uint64(uint32(st.Type)), 16)
}

// cpuSeconds is the user plus system CPU time of this process so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// residentBytes is the process's current resident set size.
func residentBytes() float64 {
	blob, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(blob))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize())
}
