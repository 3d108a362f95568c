package itemset

import (
	"fmt"
	"strconv"
)

// The transaction text format (the FIMI .dat convention) is defined here
// and nowhere else: every engine that reads transaction or itemset text
// parses it with ParseTransaction and writes it with FormatSet/EncodeSets,
// so two engines given the same bytes see the same transactions.
//
// A line holds ASCII decimal item ids in [0, 2^31-1] separated by runs of
// ASCII whitespace (space, \t, \n, \v, \f, \r — so CRLF line endings are
// accepted). Signs, other bytes and out-of-range ids are errors. Items are
// a set: order is irrelevant and duplicates collapse. A line with no items
// is the empty transaction.

// ParseTransaction parses one line of transaction text and returns its
// canonical itemset (sorted, duplicate-free, as New returns it). An error
// names the offending token and wraps the *strconv.NumError describing it.
func ParseTransaction(line string) (Itemset, error) {
	fields := 0
	for i := 0; i < len(line); i++ {
		if !isSpace(line[i]) && (i == 0 || isSpace(line[i-1])) {
			fields++
		}
	}
	s := make(Itemset, 0, fields)
	sorted := true
	for i := 0; i < len(line); {
		if isSpace(line[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(line) && !isSpace(line[j]) {
			j++
		}
		v, err := strconv.ParseUint(line[i:j], 10, 31)
		if err != nil {
			return nil, fmt.Errorf("itemset: bad item %q: %w", line[i:j], err)
		}
		if n := len(s); n > 0 && Item(v) <= s[n-1] {
			sorted = false
		}
		s = append(s, Item(v))
		i = j
	}
	if !sorted {
		s = Canonical(s)
	}
	return s, nil
}

func isSpace(c byte) bool {
	return c == ' ' || ('\t' <= c && c <= '\r')
}

// FormatSet renders s as one line of transaction text without the newline:
// its items in decimal, separated by single spaces. It is also the text key
// under which the MapReduce engines count an itemset.
func FormatSet(s Itemset) string { return string(appendSet(nil, s)) }

// EncodeSets renders every set of every level as one FormatSet line, the
// candidate-file format of the MapReduce counting jobs.
func EncodeSets(levels ...[]Itemset) []byte {
	var b []byte
	for _, sets := range levels {
		for _, s := range sets {
			b = append(appendSet(b, s), '\n')
		}
	}
	return b
}

func appendSet(b []byte, s Itemset) []byte {
	for i, it := range s {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(it), 10)
	}
	return b
}
