package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestLoadTakesMedians: rounds of raw `go test -bench` output appended
// to one file, converted by scripts/bench.sh, load as one entry per
// benchmark, at the median ns/op, with the first round's other columns.
func TestLoadTakesMedians(t *testing.T) {
	if _, err := exec.LookPath("bash"); err != nil {
		t.Skip("no bash to run scripts/bench.sh")
	}
	dir := t.TempDir()
	raw, out := filepath.Join(dir, "base.txt"), filepath.Join(dir, "base.json")
	if err := os.WriteFile(raw, []byte(`goos: linux
BenchmarkFlatTopK/d=16-2   	     100	      1000 ns/op	  512.0 MB/s	       0 B/op	       0 allocs/op
BenchmarkTopKMasked/0%-2   	      50	      7000 ns/op
PASS
BenchmarkFlatTopK/d=16-2   	     100	      3000 ns/op	  171.0 MB/s	       0 B/op	       0 allocs/op
BenchmarkFlatTopK/d=16-2   	     100	      1200 ns/op	  427.0 MB/s	       0 B/op	       0 allocs/op
BenchmarkTopKMasked/0%-2   	      50	      9000 ns/op
ok  	repro/internal/flat	1.0s
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if msg, err := exec.Command("bash", "../../scripts/bench.sh", out, raw).CombinedOutput(); err != nil {
		t.Fatalf("scripts/bench.sh: %v\n%s", err, msg)
	}
	bf, err := load(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Benchmarks) != 2 {
		t.Fatalf("loaded %+v, want 2 benchmarks", bf.Benchmarks)
	}
	top, masked := bf.Benchmarks[0], bf.Benchmarks[1]
	if top.Name != "BenchmarkFlatTopK/d=16" || top.NsPerOp != 1200 || top.Iterations != 100 || top.MBPerS == nil || *top.MBPerS != 512 || top.AllocsPerOp == nil {
		t.Errorf("FlatTopK loaded as %+v, want the median 1200 ns/op and the first round's columns", top)
	}
	if masked.Name != "BenchmarkTopKMasked/0%" || masked.NsPerOp != 8000 {
		t.Errorf("TopKMasked loaded as %+v, want the median of two, 8000 ns/op", masked)
	}
}
