package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden pins Table 1 byte for byte to testdata: the certified hard
// rows and the measured permissible ones, §4.3's sketch join among them.
// A refactor of the packages it measures must leave it unchanged.
func TestGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"table1.golden": nil,
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
