package bench

import (
	"bytes"
	"encoding/json"
	"testing"

	"dmac/internal/matrix"
)

// TestKernelsSmoke runs the microbenchmark suite at tiny sizes and checks
// report shape: every kernel at every size, a dd-par point per worker count,
// speedups on the two worker curves only, and a JSON round trip.
func TestKernelsSmoke(t *testing.T) {
	sizes := []int{8, 16, 48}
	workers := []int{1, 2}
	// The default is GOMAXPROCS, so the value Kernels must restore is
	// whatever this host started with.
	before := matrix.KernelWorkers()
	rep := Kernels(sizes, workers)
	wantKernels := []string{"dd-tiled", "dd-nt", "dd-tn", "sd", "ds", "ds-tn", "sd-nt", "ds-rowvec",
		"ds-rowvec-hyper", "ss-tn", "ss-tn-b32", "csc-build"}
	// Twelve single-path kernels plus one dd-par point per worker count at
	// each size. Then the fixed-shape points: dd-thin per worker count and
	// one dd-ragged.
	if got, want := len(rep.Points), len(sizes)*(len(wantKernels)+len(workers))+len(workers)+1; got != want {
		t.Fatalf("%d points, want %d", got, want)
	}
	seen := map[string]int{}
	for _, p := range rep.Points {
		seen[p.Kernel]++
		if p.NsPerOp <= 0 || p.Reps <= 0 {
			t.Errorf("%s/%d: non-positive timing %v reps %d", p.Kernel, p.Size, p.NsPerOp, p.Reps)
		}
		// Two 5 % blocks of side 8 hold three entries each and need not share
		// a row: ss-tn has work to rate from 16 up.
		ssNoWork := (p.Kernel == "ss-tn" || p.Kernel == "ss-tn-b32") && p.Size < 16
		if p.GFLOPS <= 0 && !ssNoWork {
			t.Errorf("%s/%d: non-positive GFLOPS", p.Kernel, p.Size)
		}
		switch p.Kernel {
		case "dd-par", "dd-thin":
			if p.Speedup <= 0 {
				t.Errorf("%s/%d: speedup not set", p.Kernel, p.Size)
			}
		default:
			if p.Speedup != 0 {
				t.Errorf("%s/%d: unexpected speedup %v", p.Kernel, p.Size, p.Speedup)
			}
		}
		if p.Kernel == "dd-par" || p.Kernel == "dd-thin" {
			if p.Workers != 1 && p.Workers != 2 {
				t.Errorf("%s/%d: unexpected worker count %d", p.Kernel, p.Size, p.Workers)
			}
		} else if p.Workers != 0 {
			t.Errorf("%s/%d: unexpected workers %d", p.Kernel, p.Size, p.Workers)
		}
	}
	for _, k := range wantKernels {
		if seen[k] != len(sizes) {
			t.Errorf("kernel %s measured %d times, want %d", k, seen[k], len(sizes))
		}
	}
	if seen["dd-par"] != len(sizes)*len(workers) {
		t.Errorf("dd-par measured %d times, want %d", seen["dd-par"], len(sizes)*len(workers))
	}
	if seen["dd-thin"] != len(workers) || seen["dd-ragged"] != 1 {
		t.Errorf("fixed-shape points: dd-thin measured %d times, dd-ragged %d, want %d and 1", seen["dd-thin"], seen["dd-ragged"], len(workers))
	}
	if rep.GemmKernel == "" {
		t.Error("report does not name the GEMM micro-kernel")
	}
	if rep.KernelVersion != matrix.KernelVersion {
		t.Errorf("report records kernel version %d, want %d", rep.KernelVersion, matrix.KernelVersion)
	}
	if got := matrix.KernelWorkers(); got != before {
		t.Errorf("Kernels left kernel workers at %d, want %d restored", got, before)
	}

	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(rep.Points) || back.GoArch != rep.GoArch || back.GemmKernel != rep.GemmKernel || back.KernelVersion != rep.KernelVersion {
		t.Error("JSON round trip lost data")
	}
	WriteKernels(&buf, rep) // must not panic
}
