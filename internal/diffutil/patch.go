package diffutil

import (
	"fmt"
	"strconv"
	"strings"
)

// ParsePatch parses a (possibly multi-file) unified diff. Header noise
// before the first "---" line (mail headers, commit messages, "diff"
// lines) is ignored, like patch(1).
func ParsePatch(text string) (*Patch, error) {
	p := &Patch{}
	lines := strings.Split(text, "\n")
	i := 0
	for i < len(lines) {
		line := lines[i]
		if !strings.HasPrefix(line, "--- ") {
			i++
			continue
		}
		oldName := strings.TrimSpace(strings.TrimPrefix(line, "--- "))
		i++
		if i >= len(lines) || !strings.HasPrefix(lines[i], "+++ ") {
			return nil, fmt.Errorf("diffutil: line %d: missing +++ after ---", i+1)
		}
		newName := strings.TrimSpace(strings.TrimPrefix(lines[i], "+++ "))
		i++
		// Strip timestamps ("\tdate") if present.
		if t := strings.IndexByte(oldName, '\t'); t >= 0 {
			oldName = oldName[:t]
		}
		if t := strings.IndexByte(newName, '\t'); t >= 0 {
			newName = newName[:t]
		}
		fp := &FilePatch{Old: oldName, New: newName}

		for i < len(lines) && strings.HasPrefix(lines[i], "@@") {
			h, err := parseHunkHeader(lines[i])
			if err != nil {
				return nil, fmt.Errorf("diffutil: line %d: %v", i+1, err)
			}
			i++
			remOld, remNew := h.OldCount, h.NewCount
			for i < len(lines) && (remOld > 0 || remNew > 0) {
				l := lines[i]
				if l == "" && i == len(lines)-1 {
					break
				}
				if l == `\ No newline at end of file` {
					i++
					continue
				}
				if l == "" {
					l = " " // tolerate trailing-whitespace-stripped context
				}
				switch l[0] {
				case ' ':
					h.Lines = append(h.Lines, Line{' ', l[1:]})
					remOld--
					remNew--
				case '-':
					h.Lines = append(h.Lines, Line{'-', l[1:]})
					remOld--
				case '+':
					h.Lines = append(h.Lines, Line{'+', l[1:]})
					remNew--
				default:
					return nil, fmt.Errorf("diffutil: line %d: unexpected %q inside hunk", i+1, l)
				}
				i++
			}
			if remOld != 0 || remNew != 0 {
				return nil, fmt.Errorf("diffutil: truncated hunk (old %d, new %d remaining)", remOld, remNew)
			}
			fp.Hunks = append(fp.Hunks, h)
		}
		if len(fp.Hunks) == 0 {
			return nil, fmt.Errorf("diffutil: file %s has no hunks", fp.Path())
		}
		p.Files = append(p.Files, fp)
	}
	if len(p.Files) == 0 {
		return nil, fmt.Errorf("diffutil: no file patches found")
	}
	return p, nil
}

func parseHunkHeader(line string) (*Hunk, error) {
	// @@ -oldStart,oldCount +newStart,newCount @@ [section]
	rest := strings.TrimPrefix(line, "@@ ")
	end := strings.Index(rest, " @@")
	if end < 0 {
		return nil, fmt.Errorf("malformed hunk header %q", line)
	}
	parts := strings.Fields(rest[:end])
	if len(parts) != 2 || !strings.HasPrefix(parts[0], "-") || !strings.HasPrefix(parts[1], "+") {
		return nil, fmt.Errorf("malformed hunk header %q", line)
	}
	parse := func(s string) (int, int, error) {
		s = s[1:]
		if c := strings.IndexByte(s, ','); c >= 0 {
			start, err1 := strconv.Atoi(s[:c])
			count, err2 := strconv.Atoi(s[c+1:])
			if err1 != nil || err2 != nil {
				return 0, 0, fmt.Errorf("bad range %q", s)
			}
			return start, count, nil
		}
		start, err := strconv.Atoi(s)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
		return start, 1, nil
	}
	h := &Hunk{}
	var err error
	if h.OldStart, h.OldCount, err = parse(parts[0]); err != nil {
		return nil, err
	}
	if h.NewStart, h.NewCount, err = parse(parts[1]); err != nil {
		return nil, err
	}
	return h, nil
}

// maxFuzzOffset bounds how far from the declared position a hunk's context
// may be found.
const maxFuzzOffset = 200

// Apply applies the patch to a source tree, returning the patched tree.
// The input tree is not modified. Hunk context must match exactly, though
// the position may drift (like patch(1) offset handling).
func (p *Patch) Apply(tree map[string]string) (map[string]string, error) {
	out := make(map[string]string, len(tree))
	for k, v := range tree {
		out[k] = v
	}
	for _, fp := range p.Files {
		path := fp.Path()
		if fp.Creates() {
			if existing, exists := out[path]; exists && existing != "" {
				return nil, fmt.Errorf("diffutil: patch creates %s which already exists", path)
			}
			var sb strings.Builder
			for _, h := range fp.Hunks {
				for _, l := range h.Lines {
					if l.Kind == '+' {
						sb.WriteString(l.Text)
						sb.WriteByte('\n')
					}
				}
			}
			out[path] = sb.String()
			continue
		}
		content, ok := out[path]
		if !ok {
			return nil, fmt.Errorf("diffutil: patch modifies missing file %s", path)
		}
		lines := splitLines(content)
		if fp.Deletes() {
			delete(out, path)
			continue
		}
		var err error
		offset := 0 // cumulative drift from earlier hunks
		for hi, h := range fp.Hunks {
			lines, offset, err = applyHunk(lines, h, offset)
			if err != nil {
				return nil, fmt.Errorf("diffutil: %s hunk %d: %w", path, hi+1, err)
			}
		}
		out[path] = strings.Join(lines, "\n") + "\n"
	}
	return out, nil
}

// applyHunk applies one hunk, returning new lines and the updated drift.
func applyHunk(lines []string, h *Hunk, drift int) ([]string, int, error) {
	var oldLines []string
	for _, l := range h.Lines {
		if l.Kind == ' ' || l.Kind == '-' {
			oldLines = append(oldLines, l.Text)
		}
	}
	matchAt := func(pos int) bool {
		if pos < 0 || pos+len(oldLines) > len(lines) {
			return false
		}
		for i, ol := range oldLines {
			if lines[pos+i] != ol {
				return false
			}
		}
		return true
	}
	want := h.OldStart - 1 + drift
	found := -1
	for delta := 0; delta <= maxFuzzOffset; delta++ {
		if matchAt(want + delta) {
			found = want + delta
			break
		}
		if delta > 0 && matchAt(want-delta) {
			found = want - delta
			break
		}
	}
	if found < 0 {
		return nil, 0, fmt.Errorf("context not found near line %d", h.OldStart)
	}

	var newLines []string
	newLines = append(newLines, lines[:found]...)
	for _, l := range h.Lines {
		if l.Kind == ' ' || l.Kind == '+' {
			newLines = append(newLines, l.Text)
		}
	}
	newLines = append(newLines, lines[found+len(oldLines):]...)
	newDrift := drift + (found - (h.OldStart - 1 + drift)) + (h.NewCount - h.OldCount)
	return newLines, newDrift, nil
}

// Stats reports the patch's added and removed line counts. The paper's
// Figure 3 buckets patches by "lines of code in the patch"; we count
// changed lines (additions plus deletions).
func (p *Patch) Stats() (added, removed int) {
	for _, fp := range p.Files {
		for _, h := range fp.Hunks {
			for _, l := range h.Lines {
				switch l.Kind {
				case '+':
					added++
				case '-':
					removed++
				}
			}
		}
	}
	return
}

// ChangedLines returns the patch-length metric used by Figure 3.
func (p *Patch) ChangedLines() int {
	a, r := p.Stats()
	if a > r {
		return a
	}
	return r
}
