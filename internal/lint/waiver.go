package lint

import (
	"go/ast"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/imcstudy/imcstudy/internal/lint/analysis"
)

// waiverMarker is the directive that suppresses an imclint finding on
// the same or the following line. A reason is mandatory:
//
//	//imclint:deterministic -- emission order is cosmetic, report is re-sorted
//	for k := range m { ... }
const waiverMarker = "imclint:deterministic"

// parseWaiverComment parses one comment's text (with or without the
// leading "//"). ok reports whether the comment is a waiver directive;
// reason is the stated justification, "" when missing. The reason
// separator — spaces, tabs, ASCII/em dashes, colons — is stripped, and
// the reason itself is space-trimmed, so callers can test reason == ""
// to detect a bare directive.
func parseWaiverComment(text string) (reason string, ok bool) {
	text = strings.TrimPrefix(text, "//")
	text = strings.TrimLeft(text, " \t")
	if !strings.HasPrefix(text, waiverMarker) {
		return "", false
	}
	reason = strings.TrimPrefix(text, waiverMarker)
	reason = strings.TrimLeft(reason, " \t-—:")
	return strings.TrimSpace(reason), true
}

// waiverInfo is one directive occurrence.
type waiverInfo struct {
	reason string
	pos    token.Pos
}

// waivers indexes waiver directives by file and line.
type waivers struct {
	fset *token.FileSet
	// byLine maps filename -> line -> directive.
	byLine map[string]map[int]waiverInfo
}

// collectWaivers scans the pass's files for waiver directives.
func collectWaivers(fset *token.FileSet, files []*ast.File) *waivers {
	w := &waivers{fset: fset, byLine: make(map[string]map[int]waiverInfo)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				reason, ok := parseWaiverComment(c.Text)
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				m := w.byLine[p.Filename]
				if m == nil {
					m = make(map[int]waiverInfo)
					w.byLine[p.Filename] = m
				}
				m[p.Line] = waiverInfo{reason: reason, pos: c.Pos()}
			}
		}
	}
	return w
}

// at returns the waiver covering pos — a directive on the same line or
// the line directly above — plus the directive's own location.
func (w *waivers) at(pos token.Pos) (info waiverInfo, line int, file string, ok bool) {
	p := w.fset.Position(pos)
	m := w.byLine[p.Filename]
	if m == nil {
		return waiverInfo{}, 0, "", false
	}
	if inf, ok := m[p.Line]; ok {
		return inf, p.Line, p.Filename, true
	}
	if inf, ok := m[p.Line-1]; ok {
		return inf, p.Line - 1, p.Filename, true
	}
	return waiverInfo{}, 0, "", false
}

// waiverUses records, across every analyzer of the current driver run,
// which directives suppressed at least one would-be finding. Keys are
// "filename\x00line". Drivers run packages sequentially and a file
// belongs to exactly one package, so a process-wide map is sound in
// the driver and the test harness alike; the mutex covers incidental
// parallel test use.
var (
	waiverUsesMu sync.Mutex
	waiverUses   = make(map[string]bool)
)

func waiverUseKey(file string, line int) string {
	return file + "\x00" + strconv.Itoa(line)
}

func markWaiverUsed(file string, line int) {
	waiverUsesMu.Lock()
	waiverUses[waiverUseKey(file, line)] = true
	waiverUsesMu.Unlock()
}

func waiverUsed(file string, line int) bool {
	waiverUsesMu.Lock()
	defer waiverUsesMu.Unlock()
	return waiverUses[waiverUseKey(file, line)]
}

// waived reports whether pos carries a waiver, and if so records the
// directive as consumed (the stalewaiver analyzer reports directives
// that never suppressed anything). A waiver with no stated reason still
// suppresses the underlying finding but is itself reported — under the
// suite-wide "waiver" name so the same bare directive seen by several
// analyzers yields one finding — so a bare directive can never land
// silently.
func waived(pass *analysis.Pass, w *waivers, pos token.Pos) bool {
	info, line, file, ok := w.at(pos)
	if !ok {
		return false
	}
	markWaiverUsed(file, line)
	if info.reason == "" {
		// Anchored at the waived finding (not the directive) so the
		// report lands where the reader is already looking; attributed
		// to the suite-wide "waiver" name so several analyzers waiving
		// the same position dedup to one finding.
		pass.Report(analysis.Diagnostic{
			Pos:      pos,
			Analyzer: "waiver",
			Message:  "imclint:deterministic waiver is missing a reason (write \"//imclint:deterministic -- why this is safe\")",
		})
	}
	return true
}

// StaleWaiver reports waiver directives that suppressed no finding of
// any analyzer in the suite. Waiver debt otherwise accumulates
// silently: code gets fixed or deleted, the directive stays, and the
// next reader assumes the line below is still dangerous. The analyzer
// must run last in the suite (see Analyzers), after every other
// analyzer has had the chance to consume the package's waivers.
var StaleWaiver = &analysis.Analyzer{
	Name: "stalewaiver",
	Doc:  "reports imclint:deterministic waivers that no longer suppress any finding",
	Run:  runStaleWaiver,
}

func runStaleWaiver(pass *analysis.Pass) error {
	w := collectWaivers(pass.Fset, pass.Files)
	type stale struct {
		pos  token.Pos
		file string
		line int
	}
	var found []stale
	for file, lines := range w.byLine {
		for line, info := range lines {
			if !waiverUsed(file, line) {
				found = append(found, stale{pos: info.pos, file: file, line: line})
			}
		}
	}
	// The map walk above is order-free only because we sort before
	// reporting; diagnostics must be deterministic like everything else.
	sort.Slice(found, func(i, j int) bool {
		if found[i].file != found[j].file {
			return found[i].file < found[j].file
		}
		return found[i].line < found[j].line
	})
	for _, s := range found {
		pass.Reportf(s.pos, "stale imclint:deterministic waiver: it suppresses no finding of any analyzer; remove it (or re-justify the code it was guarding)")
	}
	return nil
}
