package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGolden pins ipsjoin's summary for every engine byte for byte to
// testdata — signed and unsigned, threshold and top-3 mode, one worker
// and two, each verified by brute force — with only the wall time
// masked: a refactor of the join engines must leave it unchanged.
func TestGolden(t *testing.T) {
	elapsed := regexp.MustCompile(`time=\S+`)
	var out bytes.Buffer
	for _, engine := range []string{"tiled", "normpruned", "lsh", "sketch", "naive"} {
		for _, variant := range []string{"signed", "unsigned"} {
			if engine == "sketch" && variant == "signed" {
				continue // the sketch joins unsigned only
			}
			for _, topk := range []int{0, 3} {
				for _, workers := range []int{1, 2} {
					args := strings.Fields(fmt.Sprintf("-engine %s -variant %s -topk %d -workers %d -verify", engine, variant, topk, workers))
					fmt.Fprintf(&out, "$ ipsjoin %s\n", strings.Join(args, " "))
					var one bytes.Buffer
					if err := run(&one, args); err != nil {
						t.Fatalf("%v: %v", args, err)
					}
					out.Write(elapsed.ReplaceAll(one.Bytes(), []byte("time=*")))
				}
			}
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "ipsjoin.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/ipsjoin.golden\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}
