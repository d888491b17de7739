package ips

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// TestReadmeNamesExist keeps README's operator surface honest: every
// ipsd_* metric README names must be one internal/server writes, and
// every flag on an ipsd or loadgen command line (ipsd …, "$BIN/loadgen"
// …, go run ./cmd/loadgen …, with its \-continued lines) in README's
// and the verify skill's shell blocks and code spans, in ci.yml and in
// scripts/*.sh one that the command's cmd/ directory defines. A metric written in brace shorthand, ipsd_admission_{inflight,
// queued}, names each member, where braces after a whole name hold its
// labels; a histogram's _bucket, _sum and _count series count as the
// histogram's. README names 21 metrics today (19 spellings, the
// admission shorthand covering three). Every kernel that README or the
// verify skill names in a code span — a dot… or skipBelow… identifier,
// bare or as Store.dotRange — must be declared in internal/flat, as a
// Go func or method or as an assembly TEXT symbol. Every
// package-qualified name in a code span of either file — ips.LSHJoin,
// join.Spec, flat.Store.TopK — must be declared in that repo package
// (ips is the root package, the others live under internal/), as a
// func, method, type, var or const; a qualifier of two or more letters
// that is neither a repo package nor a standard one names a package
// that is gone. One-letter qualifiers, such as f.Add, are variables.
func TestReadmeNamesExist(t *testing.T) {
	readme := readFile(t, "README.md")

	std := stdPackages(t)
	pkgDirs := map[string]string{"ips": "."}
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		pkgDirs[filepath.Base(dir)] = dir
	}
	decls := map[string]map[string]bool{}
	span := regexp.MustCompile("`[^`\n]+`")
	qualified := regexp.MustCompile(`\b([a-z][a-z0-9]+)\.([A-Z][A-Za-z0-9_]*)`)
	for _, path := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		checked := 0
		for _, code := range span.FindAllString(readFile(t, path), -1) {
			for _, m := range qualified.FindAllStringSubmatch(code, -1) {
				pkg, name := m[1], m[2]
				dir, ok := pkgDirs[pkg]
				if !ok {
					if std != nil && !std[pkg] {
						t.Errorf("%s names %s.%s, but there is no repo or standard package %s", path, pkg, name, pkg)
					}
					continue
				}
				if decls[pkg] == nil {
					decls[pkg] = goDecls(t, dir, true)
				}
				if !decls[pkg][name] {
					t.Errorf("%s names %s.%s, which %s does not declare", path, pkg, name, dir)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Errorf("%s names no package-qualified Go name: the pattern no longer matches how it writes them", path)
		}
		t.Logf("%s names %d package-qualified Go names", path, checked)
	}

	kernels := flatKernels(t)
	kernel := regexp.MustCompile("`(?:[A-Za-z0-9_]+\\.)?((?:dot|skipBelow)[A-Za-z0-9_]*)`")
	for _, path := range []string{"README.md", ".claude/skills/verify/SKILL.md"} {
		named := map[string]bool{}
		for _, m := range kernel.FindAllStringSubmatch(readFile(t, path), -1) {
			if !named[m[1]] && !kernels[m[1]] {
				t.Errorf("%s names kernel %s, which internal/flat does not declare", path, m[1])
			}
			named[m[1]] = true
		}
		if len(named) == 0 {
			t.Errorf("%s names no kernel: the pattern no longer matches how it writes them", path)
		}
		t.Logf("%s names %d kernels", path, len(named))
	}

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

	// Every ipsd and loadgen command line in the docs, the scripts and CI
	// may use only flags that its cmd/ directory defines.
	cmds := map[string]map[string]bool{"ipsd": cmdFlags(t, "cmd/ipsd"), "loadgen": cmdFlags(t, "cmd/loadgen")}
	docs := []string{"README.md", ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml"}
	scripts, err := filepath.Glob("scripts/*.sh")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]int{}
	for _, path := range append(docs, scripts...) {
		for _, line := range commandLines(readFile(t, path), strings.HasSuffix(path, ".md")) {
			cmd := ""
			for _, field := range strings.Fields(line) {
				if strings.ContainsAny(field[:1], "#&|;<>") { // a comment, or the command ends
					break
				}
				if cmd == "" {
					if name := strings.Trim(field[strings.LastIndex(field, "/")+1:], `"'`); cmds[name] != nil {
						cmd = name
					}
					continue
				}
				name := strings.TrimLeft(field, "-")
				if name == field || name == "" || !unicode.IsLetter(rune(name[0])) {
					continue // an argument, a negative number or --
				}
				name, _, _ = strings.Cut(name, "=")
				used[cmd]++
				if !cmds[cmd][name] {
					t.Errorf("%s runs %s with -%s, which cmd/%s does not define", path, cmd, name, cmd)
				}
			}
		}
	}
	for cmd := range cmds {
		if used[cmd] == 0 {
			t.Errorf("no %s command line with a flag found: the pattern no longer matches how they are written", cmd)
		}
	}
	t.Logf("checked %d ipsd and %d loadgen flags on command lines", used["ipsd"], used["loadgen"])
}

// commandLines returns the lines of a shell script or workflow, or of a
// Markdown file's fenced blocks and one-line code spans, with every
// line that ends in \ joined to the next and each $(…) substitution
// blanked.
func commandLines(text string, markdown bool) []string {
	text = strings.ReplaceAll(text, "\\\n", " ")
	text = regexp.MustCompile(`\$\([^)]*\)`).ReplaceAllString(text, "X")
	if !markdown {
		return strings.Split(text, "\n")
	}
	var lines []string
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			inBlock = !inBlock
		case inBlock:
			lines = append(lines, line)
		default:
			for _, span := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(line, -1) {
				lines = append(lines, span[1])
			}
		}
	}
	return lines
}

// cmdFlags returns the names of the flags the command in dir defines:
// the first argument of every String, Int, Bool, … call on the flag
// package or a FlagSet in its sources.
func cmdFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	sources, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	definers := map[string]bool{"String": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true, "Bool": true, "Float64": true, "Duration": true}
	defined := map[string]bool{}
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || !definers[sel.Sel.Name] {
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
		t.Fatalf("found no flag definitions in %s", dir)
	}
	return defined
}

// stdPackages returns the last path element of every standard-library
// package (json for encoding/json), or nil when there is no go command.
func stdPackages(t *testing.T) map[string]bool {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Log("no go command on PATH: qualifiers outside the repo go unchecked")
		return nil
	}
	out, err := exec.Command("go", "list", "std").Output()
	if err != nil {
		t.Fatalf("go list std: %v", err)
	}
	std := map[string]bool{}
	for _, p := range strings.Fields(string(out)) {
		std[p[strings.LastIndex(p, "/")+1:]] = true
	}
	return std
}

// goDecls returns the names the Go sources in dir declare outside its
// tests: every func and method and, when values is set, every
// package-level type, var and const.
func goDecls(t *testing.T, dir string, values bool) map[string]bool {
	t.Helper()
	declared := map[string]bool{}
	sources, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range sources {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declared[decl.Name.Name] = true
			case *ast.GenDecl:
				if !values {
					continue
				}
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							declared[name.Name] = true
						}
					}
				}
			}
		}
	}
	return declared
}

// flatKernels returns the names internal/flat declares outside its
// tests: every func and method in its Go sources and every TEXT ·name
// in its assembly.
func flatKernels(t *testing.T) map[string]bool {
	t.Helper()
	declared := goDecls(t, "internal/flat", false)
	asm, err := filepath.Glob("internal/flat/*.s")
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`(?m)^TEXT ·([A-Za-z0-9_]+)\(SB\)`)
	for _, path := range asm {
		for _, m := range text.FindAllStringSubmatch(readFile(t, path), -1) {
			declared[m[1]] = true
		}
	}
	if len(asm) == 0 || len(declared) == 0 {
		t.Fatal("found no declarations in internal/flat")
	}
	return declared
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
