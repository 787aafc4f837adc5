package andor

import (
	"fmt"
	"strings"
)

// Choice records one branch decision: Or node `Or` selected its Branch-th
// successor.
type Choice struct {
	Or     *Node
	Branch int
}

// Path is one complete execution path of an AND/OR application: the ordered
// list of sections executed, the branch choices that produced it, and the
// path's a-priori probability (the product of its branch probabilities).
type Path struct {
	Sections []*Section
	Choices  []Choice
	Prob     float64
}

// WCETSum returns the total worst-case work along the path.
func (p *Path) WCETSum() float64 {
	var sum float64
	for _, s := range p.Sections {
		sum += s.WCETSum()
	}
	return sum
}

// ACETSum returns the total average-case work along the path.
func (p *Path) ACETSum() float64 {
	var sum float64
	for _, s := range p.Sections {
		sum += s.ACETSum()
	}
	return sum
}

// String renders the path as "S0 -O1/2-> S3 -O4/1-> S5 (p=0.21)".
func (p *Path) String() string {
	var b strings.Builder
	for i, s := range p.Sections {
		if i > 0 {
			c := p.Choices[i-1]
			fmt.Fprintf(&b, " -%s/%d-> ", c.Or.Name, c.Branch)
		}
		fmt.Fprintf(&b, "S%d", s.ID)
	}
	fmt.Fprintf(&b, " (p=%.4g)", p.Prob)
	return b.String()
}

// ErrTooManyPaths is returned by Paths when the number of execution paths
// exceeds the given limit.
var ErrTooManyPaths = fmt.Errorf("andor: execution path count exceeds limit")

// Paths enumerates every execution path of the decomposition, depth-first
// in branch order, up to limit paths (limit <= 0 means no limit). The path
// probabilities of a valid graph sum to 1.
func (s *Sections) Paths(limit int) ([]*Path, error) {
	var out []*Path
	var walk func(sec *Section, secs []*Section, choices []Choice, prob float64) error
	walk = func(sec *Section, secs []*Section, choices []Choice, prob float64) error {
		secs = append(secs, sec)
		if sec.Exit == nil || len(sec.Exit.Succs()) == 0 {
			if limit > 0 && len(out) >= limit {
				return ErrTooManyPaths
			}
			out = append(out, &Path{
				Sections: append([]*Section(nil), secs...),
				Choices:  append([]Choice(nil), choices...),
				Prob:     prob,
			})
			return nil
		}
		or := sec.Exit
		for i, next := range s.Branch[or.ID] {
			if err := walk(next, secs, append(choices, Choice{or, i}), prob*or.BranchProb(i)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(s.First, nil, nil, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// NumPaths returns the number of execution paths without materializing
// them. Shared join sections are memoized, so this is linear in the number
// of sections even when the path count is exponential.
func (s *Sections) NumPaths() int {
	memo := make(map[*Section]int)
	var count func(sec *Section) int
	count = func(sec *Section) int {
		if c, ok := memo[sec]; ok {
			return c
		}
		if sec.Exit == nil || len(sec.Exit.Succs()) == 0 {
			memo[sec] = 1
			return 1
		}
		total := 0
		for _, next := range s.Branch[sec.Exit.ID] {
			total += count(next)
		}
		memo[sec] = total
		return total
	}
	return count(s.First)
}
