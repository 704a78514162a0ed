package exp

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
)

// intList is a comma-separated integer list flag ("48,96,192").
type intList []int

func (l *intList) String() string {
	parts := make([]string, len(*l))
	for i, v := range *l {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (l *intList) Set(s string) error {
	v, err := parseInts(s)
	if err == nil {
		*l = v
	}
	return err
}

// intsVar registers an integer-list flag whose default is *p's current
// value, as fs.IntVar does for one integer.
func intsVar(fs *flag.FlagSet, p *[]int, name, usage string) {
	fs.Var((*intList)(p), name, usage)
}

// parseInts reads a comma-separated integer list ("48,96,192").
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("exp: empty integer list")
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("exp: bad integer %q in list", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseStrings reads a comma-separated word list, trimmed.
func parseStrings(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if t := strings.TrimSpace(p); t != "" {
			out = append(out, t)
		}
	}
	return out
}
