package ips

import (
	"os/exec"
	"strings"
	"testing"
)

// TestDependencyDirections pins the import graph to the product's shape
// with go list -deps. The server does not import the §4.3 sketch, which
// it no longer serves (join.Sketch still links it in, for ips.SketchJoin),
// and the paper artifact depends on nothing from the serving side: its
// figures and tables must not move when the server does.
func TestDependencyDirections(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	paper := []string{"join", "lsh", "transform", "sketch", "embed", "ovp", "seqs", "grid", "cheb", "codes", "gf", "corr"}
	serving := []string{"server", "persist", "errfs", "trace"}
	pkgs := []string{"repro/internal/server"}
	for _, p := range paper {
		pkgs = append(pkgs, "repro/internal/"+p)
	}
	out, err := exec.Command("go", append([]string{"list", "-deps", "-f", `{{.ImportPath}}:{{join .Imports " "}}:{{join .Deps " "}}`}, pkgs...)...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports, deps := map[string]map[string]bool{}, map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, ":")
		imports[f[0]], deps[f[0]] = map[string]bool{}, map[string]bool{}
		for _, p := range strings.Fields(f[1]) {
			imports[f[0]][p] = true
		}
		for _, p := range strings.Fields(f[2]) {
			deps[f[0]][p] = true
		}
	}
	if imports["repro/internal/server"]["repro/internal/sketch"] {
		t.Error("internal/server imports internal/sketch")
	}
	for _, p := range paper {
		for _, s := range serving {
			if deps["repro/internal/"+p]["repro/internal/"+s] {
				t.Errorf("internal/%s depends on internal/%s", p, s)
			}
		}
	}
}
