// Package analyzers is iqbvet: a suite of project-specific static
// analyzers that turn this repository's determinism, durability, and
// locking contracts into machine-checked rules.
//
// The repo's hardest guarantees — bit-identical fixed-seed scoring
// across worker counts, fsync never reached while an in-memory lock is
// held, every write-path Sync/Close/Truncate error observed, and
// simulation output that is a pure function of the seed — otherwise
// live only in prose comments and a handful of pinning tests that catch
// regressions probabilistically at best. Each analyzer encodes one of
// those invariants so CI rejects a violation the moment it is written:
//
//   - maprange flags map iteration that feeds order-sensitive sinks
//     (slice appends, string building, ingestion into module-local
//     aggregation state) inside the determinism-contract packages,
//     unless the collected keys are sorted afterwards. Map iteration
//     order is randomized per run, so such a loop breaks
//     fixed-seed bit-identity in a way tests only catch sometimes.
//
//   - lockio flags blocking I/O (os.File method calls, os filesystem
//     calls, net dials/listens, interface methods named Sync or
//     Truncate, time.Sleep) reached while a sync.Mutex or sync.RWMutex
//     is held: an fsync under a shared lock stalls every reader and
//     writer of that lock behind disk latency.
//
//   - syncerr flags discarded errors from Sync and Truncate, and from
//     Close on write-path files, in the packages that write under
//     -data-dir. An unobserved fsync error is a silent durability
//     hole: the write is acknowledged but may not be on disk.
//
//   - walltime flags time.Now/Since/Until/Sleep (and friends) and
//     global math/rand state in the simulation and scoring packages,
//     where the world must be a pure function of the seed (the
//     internal/rng package exists so nothing there needs either).
//
// Intentional exceptions are documented at the use site with a
// suppression comment naming the analyzer and the reason:
//
//	//iqbvet:ignore walltime Elapsed is wall-clock telemetry only; no scoring depends on it.
//
// which suppresses that analyzer's findings on the same line and the
// line directly below. A file-wide waiver uses //iqbvet:file-ignore
// with the same shape. A suppression without a reason (or naming an
// unknown analyzer) is itself reported, so waivers cannot rot silently.
//
// The suite runs as `go run ./cmd/iqbvet ./...` (a required CI step)
// and each analyzer carries a testdata package exercised by
// analyzertest, in the style of golang.org/x/tools' analysistest. The
// framework itself mirrors the x/tools go/analysis API shape but is
// built on the standard library alone (go/parser, go/types, and the
// source importer), so the tool builds with no module dependencies.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats a diagnostic the way go vet does.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named rule. Run inspects a type-checked package via
// the Pass and reports findings; it must not retain the Pass.
type Analyzer struct {
	Name string
	// Doc is a one-paragraph description: the rule, and the repo
	// invariant behind it.
	Doc string
	// Scope lists the import-path prefixes the multichecker applies
	// the analyzer to. Empty means every package. analyzertest runs
	// analyzers directly, so testdata packages need not match.
	Scope []string
	Run   func(*Pass)
}

// AppliesTo reports whether the analyzer's scope covers the package.
func (a *Analyzer) AppliesTo(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, p := range a.Scope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, LockIO, SyncErr, WallTime}
}

// RunPackage applies the given analyzers to one loaded package and
// returns the surviving diagnostics: suppressions from
// //iqbvet:ignore and //iqbvet:file-ignore comments are honored, and
// malformed or unknown-analyzer suppression comments are themselves
// reported. Results are sorted by position.
func RunPackage(p *Package, as []*Analyzer) []Diagnostic {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	sup, diags := collectSuppressions(p, known)
	for _, a := range as {
		pass := &Pass{Analyzer: a, Fset: p.Fset, Files: p.Files, Pkg: p.Pkg, Info: p.Info}
		a.Run(pass)
		for _, d := range pass.diags {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

const (
	ignorePrefix     = "iqbvet:ignore"
	fileIgnorePrefix = "iqbvet:file-ignore"
)

// suppressions indexes the package's ignore comments: per (file, line,
// analyzer) for line ignores, per (file, analyzer) for file waivers. A
// line ignore covers the comment's own line and the line directly
// below it, so both trailing and preceding-line placement work.
type suppressions struct {
	line map[string]map[int]map[string]bool
	file map[string]map[string]bool
}

func (s suppressions) suppressed(d Diagnostic) bool {
	if s.file[d.Pos.Filename][d.Analyzer] {
		return true
	}
	lines := s.line[d.Pos.Filename]
	return lines[d.Pos.Line][d.Analyzer] || lines[d.Pos.Line-1][d.Analyzer]
}

// collectSuppressions parses every ignore comment in the package,
// reporting malformed ones (missing analyzer name, missing reason, or
// an analyzer the suite does not define) as diagnostics so a stale or
// typo'd waiver fails the build instead of silently suppressing
// nothing — or worse, something it never named.
func collectSuppressions(p *Package, known map[string]bool) (suppressions, []Diagnostic) {
	sup := suppressions{
		line: map[string]map[int]map[string]bool{},
		file: map[string]map[string]bool{},
	}
	var diags []Diagnostic
	malformed := func(pos token.Pos, form, text string) {
		diags = append(diags, Diagnostic{
			Pos:      p.Fset.Position(pos),
			Analyzer: "iqbvet",
			Message:  fmt.Sprintf("malformed suppression %q: want //%s <analyzer> <reason>", text, form),
		})
	}
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, " ")
				var form string
				switch {
				case strings.HasPrefix(text, fileIgnorePrefix):
					form = fileIgnorePrefix
				case strings.HasPrefix(text, ignorePrefix):
					form = ignorePrefix
				default:
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, form))
				if len(fields) < 2 || !known[fields[0]] {
					malformed(c.Pos(), form, c.Text)
					continue
				}
				pos := p.Fset.Position(c.Pos())
				name := fields[0]
				if form == fileIgnorePrefix {
					byName := sup.file[pos.Filename]
					if byName == nil {
						byName = map[string]bool{}
						sup.file[pos.Filename] = byName
					}
					byName[name] = true
					continue
				}
				byLine := sup.line[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup.line[pos.Filename] = byLine
				}
				byName := byLine[pos.Line]
				if byName == nil {
					byName = map[string]bool{}
					byLine[pos.Line] = byName
				}
				byName[name] = true
			}
		}
	}
	return sup, diags
}
