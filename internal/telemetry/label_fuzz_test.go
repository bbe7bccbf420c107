package telemetry

import (
	"strings"
	"testing"
	"unicode/utf8"
)

// unescapeLabelValue inverts escapeLabelValue. ok is false when s is
// not a valid escaped label value (a dangling or unknown escape).
func unescapeLabelValue(s string) (string, bool) {
	if !strings.ContainsRune(s, '\\') {
		return s, true
	}
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			sb.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", false
		}
		switch s[i] {
		case '\\':
			sb.WriteByte('\\')
		case '"':
			sb.WriteByte('"')
		case 'n':
			sb.WriteByte('\n')
		default:
			return "", false
		}
	}
	return sb.String(), true
}

// FuzzLabelRoundTrip drives escapeLabelValue / renderLabels with
// arbitrary (including non-UTF-8) inputs and requires that
//
//  1. escaping then unescaping is the identity,
//  2. the escaped form contains no raw quote or newline (so the
//     rendered exposition line can never be broken by a label value),
//  3. a full renderLabels string parses back to the original pairs.
func FuzzLabelRoundTrip(f *testing.F) {
	for _, seed := range []string{
		"", "plain", `back\slash`, `qu"ote`, "new\nline",
		`trailing\`, `\\n`, "üñïçödé", "a\"b\\c\nd", "{},=",
	} {
		f.Add(seed, seed)
	}
	f.Fuzz(func(t *testing.T, v1, v2 string) {
		for _, v := range []string{v1, v2} {
			esc := escapeLabelValue(v)
			if strings.ContainsRune(esc, '\n') {
				t.Fatalf("escaped form %q contains a raw newline", esc)
			}
			for i := 0; i < len(esc); i++ {
				if esc[i] != '"' {
					continue
				}
				bs := 0
				for j := i - 1; j >= 0 && esc[j] == '\\'; j-- {
					bs++
				}
				if bs%2 == 0 {
					t.Fatalf("escaped form %q contains an unescaped quote at %d", esc, i)
				}
			}
			back, ok := unescapeLabelValue(esc)
			if !ok {
				t.Fatalf("escape produced an unparseable form %q from %q", esc, v)
			}
			if back != v {
				t.Fatalf("round trip: %q -> %q -> %q", v, esc, back)
			}
			if utf8.ValidString(v) && !utf8.ValidString(esc) {
				t.Fatalf("escaping broke UTF-8 validity of %q", v)
			}
		}
		labels := []Label{{Name: "a", Value: v1}, {Name: "b", Value: v2}}
		rendered := renderLabels(labels)
		parsed, ok := parseRenderedLabels(rendered)
		if !ok {
			t.Fatalf("rendered labels %q do not parse", rendered)
		}
		if len(parsed) != len(labels) {
			t.Fatalf("parsed %d labels from %q, want %d", len(parsed), rendered, len(labels))
		}
		for i := range labels {
			if parsed[i] != labels[i] {
				t.Fatalf("label %d round trip: %+v -> %q -> %+v", i, labels[i], rendered, parsed[i])
			}
		}
	})
}

// parseRenderedLabels inverts renderLabels: it splits {k="v",...} on
// structure, honoring escapes inside values.
func parseRenderedLabels(s string) ([]Label, bool) {
	if s == "" {
		return nil, true
	}
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return nil, false
	}
	s = s[1 : len(s)-1]
	var out []Label
	for len(s) > 0 {
		eq := strings.Index(s, `="`)
		if eq < 0 {
			return nil, false
		}
		name := s[:eq]
		rest := s[eq+2:]
		// Find the closing quote: the first '"' not preceded by an odd
		// run of backslashes.
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] != '"' {
				continue
			}
			bs := 0
			for j := i - 1; j >= 0 && rest[j] == '\\'; j-- {
				bs++
			}
			if bs%2 == 0 {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, false
		}
		val, ok := unescapeLabelValue(rest[:end])
		if !ok {
			return nil, false
		}
		out = append(out, Label{Name: name, Value: val})
		s = rest[end+1:]
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		} else if s != "" {
			return nil, false
		}
	}
	return out, true
}
