package ips

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestReadmeNamesExist keeps README's operator surface honest: every
// ipsd_* metric README names must be one internal/server writes, and
// every flag on an ipsd command line in README's shell blocks (ipsd …
// or go run ./cmd/ipsd …, with its \-continued lines) one that cmd/ipsd
// defines. A metric written in brace shorthand, ipsd_admission_{inflight,
// queued}, names each member, where braces after a whole name hold its
// labels; a histogram's _bucket, _sum and _count series count as the
// histogram's. README names 21 metrics today (19 spellings, the
// admission shorthand covering three).
func TestReadmeNamesExist(t *testing.T) {
	readme := readFile(t, "README.md")

	written := map[string]bool{}
	sources, err := filepath.Glob("internal/server/*.go")
	if err != nil {
		t.Fatal(err)
	}
	metric := regexp.MustCompile(`ipsd_[a-z0-9_]*[a-z0-9]`)
	for _, path := range sources {
		if !strings.HasSuffix(path, "_test.go") {
			for _, name := range metric.FindAllString(readFile(t, path), -1) {
				written[name] = true
			}
		}
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`ipsd_[a-z0-9_]*(\{[a-z0-9_,]+\})?`).FindAllString(readme, -1) {
		stem, members, braced := strings.Cut(m, "{")
		names := []string{stem}
		if braced && strings.HasSuffix(stem, "_") { // shorthand, not a label set
			names = nil
			for _, member := range strings.Split(strings.TrimSuffix(members, "}"), ",") {
				names = append(names, stem+member)
			}
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_") {
				continue // a bare prefix, such as "ipsd_" in prose
			}
			named[name] = true
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suffix)
			}
			if !written[name] && !written[base] {
				t.Errorf("README names metric %s, which internal/server does not write", name)
			}
		}
	}
	if len(named) == 0 {
		t.Error("README names no ipsd_* metric: the pattern no longer matches how it writes them")
	}
	t.Logf("README names %d ipsd_* metrics", len(named))

	defined := ipsdFlags(t)
	flags := 0
	inBlock, inCommand := false, false
	for _, line := range strings.Split(readme, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inBlock, inCommand = !inBlock, false
			continue
		}
		if !inBlock {
			continue
		}
		if !inCommand && !strings.HasPrefix(trimmed, "ipsd ") && !strings.HasPrefix(trimmed, "go run ./cmd/ipsd ") {
			continue
		}
		for _, field := range strings.Fields(trimmed) {
			if name, ok := strings.CutPrefix(field, "-"); ok && name != "" {
				name, _, _ = strings.Cut(strings.TrimPrefix(name, "-"), "=")
				flags++
				if !defined[name] {
					t.Errorf("README runs ipsd with -%s, which cmd/ipsd does not define", name)
				}
			}
		}
		inCommand = strings.HasSuffix(trimmed, `\`)
	}
	if flags == 0 {
		t.Error("README shows no ipsd command line with a flag: the pattern no longer matches how it writes them")
	}
}

// ipsdFlags returns the names of the flags cmd/ipsd defines: the first
// argument of every flag.String, flag.Int, … call in its sources.
func ipsdFlags(t *testing.T) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	sources, err := filepath.Glob("cmd/ipsd/*.go")
	if err != nil {
		t.Fatal(err)
	}
	defined := map[string]bool{}
	for _, path := range sources {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if name, err := strconv.Unquote(lit.Value); err == nil {
					defined[name] = true
				}
			}
			return true
		})
	}
	if len(defined) == 0 {
		t.Fatal("found no flag definitions in cmd/ipsd")
	}
	return defined
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
