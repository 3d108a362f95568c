package itemset

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestParseTransaction(t *testing.T) {
	cases := []struct {
		in   string
		want Itemset
		ok   bool
	}{
		{"1 2 3", New(1, 2, 3), true},
		{"  7   5 ", New(5, 7), true},
		{"42", New(42), true},
		{"", New(), true},
		{" \t", New(), true},
		{"3 3 3", New(3), true},
		{"1 1 2", New(1, 2), true},
		{"007 2", New(2, 7), true},
		{"1 2\r", New(1, 2), true},
		{"\t1\v2\f0", New(0, 1, 2), true},
		{"2147483647", New(math.MaxInt32), true},
		{"1 -2", nil, false},
		{"-1", nil, false},
		{"+7", nil, false},
		{"a b", nil, false},
		{"1 x", nil, false},
		{"1 2 oops", nil, false},
		{"1,2", nil, false},
		{"2147483648", nil, false},
		{"4294967297 2", nil, false},
		{"1 2", nil, false}, // non-ASCII whitespace
	}
	for _, c := range cases {
		got, err := ParseTransaction(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseTransaction(%q) err = %v", c.in, err)
			continue
		}
		if c.ok && !got.Equal(c.want) {
			t.Errorf("ParseTransaction(%q) = %v, want %v", c.in, got, c.want)
		}
	}

	for _, s := range []Itemset{New(), New(1), New(3, 1, 4), New(100, 2000), New(5, 1, 300)} {
		back, err := ParseTransaction(FormatSet(s))
		if err != nil || !back.Equal(s) {
			t.Errorf("round trip %v -> %q -> %v (%v)", s, FormatSet(s), back, err)
		}
	}
	if got := string(EncodeSets([]Itemset{New(2, 1), New(30)}, []Itemset{New(4, 5, 6)})); got != "1 2\n30\n4 5 6\n" {
		t.Errorf("EncodeSets = %q", got)
	}
}

// FuzzParseTransaction checks the parser against a reference built from
// strings.Fields and strconv: a line is accepted iff it is ASCII and every
// field is a decimal in [0, 2^31-1], and then the result is the canonical
// set of those values, which FormatSet renders back to the same set.
func FuzzParseTransaction(f *testing.F) {
	for _, seed := range []string{"1 2 3", "", "3 3 1", "007 2\r", "+7", "-1",
		"2147483647", "2147483648", "1 2 oops", "1 2", "\t9\v0\f"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		got, err := ParseTransaction(line)
		want, ok := referenceParse(line)
		if (err == nil) != ok {
			t.Fatalf("ParseTransaction(%q) err = %v, reference accepts = %v", line, err, ok)
		}
		if !ok {
			return
		}
		if !got.Equal(want) {
			t.Fatalf("ParseTransaction(%q) = %v, reference %v", line, got, want)
		}
		back, err := ParseTransaction(FormatSet(got))
		if err != nil || !back.Equal(got) {
			t.Fatalf("round trip %v -> %q -> %v (%v)", got, FormatSet(got), back, err)
		}
	})
}

func referenceParse(line string) (Itemset, bool) {
	for i := 0; i < len(line); i++ {
		if line[i] >= utf8.RuneSelf {
			return nil, false
		}
	}
	var items []Item
	for _, field := range strings.Fields(line) {
		for _, c := range field {
			if c < '0' || c > '9' {
				return nil, false
			}
		}
		v, err := strconv.ParseInt(field, 10, 64)
		if err != nil || v > math.MaxInt32 {
			return nil, false
		}
		items = append(items, Item(v))
	}
	return New(items...), true
}
