package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// NolintPrefix is the suppression directive. The full grammar is
//
//	//ssim:nolint <reason>
//	//ssim:nolint <analyzer>: <reason>
//
// A directive suppresses diagnostics reported on its own source line; a
// directive that is alone on its line also covers the line immediately
// below, so multi-line constructs can be annotated above. The reason is
// mandatory: a bare //ssim:nolint is itself reported as a diagnostic, so
// suppressions stay auditable.
const NolintPrefix = "//ssim:nolint"

// HotpathDirective marks a function whose body, and whose same-package
// callees, the hotalloc pass keeps free of per-call allocations.
const HotpathDirective = "//ssim:hotpath"

// ParallelDirective marks a function that executes on multiple goroutines
// concurrently *with the same receiver and arguments* — the allocator's
// pricing path, the shared surface cache. Inside such a
// function (and through its same-package callee summaries) the concurrency
// passes treat everything reachable from the receiver and pointer/reference
// parameters as shared state: writes must be partitioned by a
// goroutine-private index, guarded by a mutex, or done through sync/atomic.
// Functions launched via a go statement are discovered automatically and do
// not need the directive; it exists for call paths whose concurrency is not
// syntactically visible in their own package.
const ParallelDirective = "//ssim:parallel"

// nolintDirective is one parsed suppression.
type nolintDirective struct {
	scope  string // analyzer name, or "" for all analyzers
	reason string
}

type fileLine struct {
	file string
	line int
}

// Suppressions indexes //ssim:nolint directives of one package.
type Suppressions struct {
	byLine    map[fileLine][]nolintDirective
	malformed []Diagnostic
}

// NewSuppressions scans the comments of files for nolint directives. src
// returns a file's source bytes (used to decide whether a directive stands
// alone on its line); it may return nil, in which case the directive is
// treated as standalone and also covers the following line.
func NewSuppressions(fset *token.FileSet, files []*ast.File, src func(filename string) []byte, knownAnalyzers []string) *Suppressions {
	s := &Suppressions{byLine: make(map[fileLine][]nolintDirective)}
	known := make(map[string]bool, len(knownAnalyzers))
	for _, n := range knownAnalyzers {
		known[n] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, NolintPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, NolintPrefix))
				pos := fset.Position(c.Pos())
				var d nolintDirective
				if i := strings.Index(rest, ":"); i > 0 && known[strings.TrimSpace(rest[:i])] {
					d.scope = strings.TrimSpace(rest[:i])
					rest = strings.TrimSpace(rest[i+1:])
				}
				d.reason = rest
				if d.reason == "" {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      c.Pos(),
						Category: "nolint",
						Message:  "//ssim:nolint requires a reason (\"//ssim:nolint <reason>\" or \"//ssim:nolint <analyzer>: <reason>\")",
					})
					continue
				}
				k := fileLine{pos.Filename, pos.Line}
				s.byLine[k] = append(s.byLine[k], d)
				if standaloneComment(src, pos) {
					next := fileLine{pos.Filename, pos.Line + 1}
					s.byLine[next] = append(s.byLine[next], d)
				}
			}
		}
	}
	return s
}

// standaloneComment reports whether only whitespace precedes the comment on
// its source line.
func standaloneComment(src func(string) []byte, pos token.Position) bool {
	if src == nil {
		return true
	}
	b := src(pos.Filename)
	if b == nil {
		return true
	}
	// Column is 1-based; walk back from the comment start to the line start.
	off := pos.Offset - (pos.Column - 1)
	if off < 0 || pos.Offset > len(b) {
		return true
	}
	for _, ch := range b[off:pos.Offset] {
		if ch != ' ' && ch != '\t' {
			return false
		}
	}
	return true
}

// Suppressed reports whether d is covered by a directive.
func (s *Suppressions) Suppressed(fset *token.FileSet, d Diagnostic) bool {
	pos := fset.Position(d.Pos)
	for _, dir := range s.byLine[fileLine{pos.Filename, pos.Line}] {
		if dir.scope == "" || dir.scope == d.Category {
			return true
		}
	}
	return false
}

// Malformed returns diagnostics for directives missing a reason.
func (s *Suppressions) Malformed() []Diagnostic { return s.malformed }

// HasHotpathDirective reports whether a function declaration carries the
// //ssim:hotpath directive in its doc comment group.
func HasHotpathDirective(fd *ast.FuncDecl) bool {
	return hasDirective(fd, HotpathDirective)
}

// HasParallelDirective reports whether a function declaration carries the
// //ssim:parallel directive in its doc comment group.
func HasParallelDirective(fd *ast.FuncDecl) bool {
	return hasDirective(fd, ParallelDirective)
}

func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
