package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins Figure 2's series, closed-form and Monte Carlo, byte
// for byte to testdata: a refactor of the packages they measure must
// leave them unchanged.
func TestGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"figure2.golden":        nil,
		"figure2-mc-csv.golden": {"-c", "0.5", "-points", "5", "-mc", "-trials", "2000", "-csv"},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output differs from testdata/%s\n got:\n%s\nwant:\n%s", args, golden, out.Bytes(), want)
		}
	}
}
