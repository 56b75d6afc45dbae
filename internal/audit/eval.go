package audit

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/cheriot-go/cheriot/internal/firmware"
)

// kind is the static type of a policy expression. When evaluated, an
// int is an int64, a bool a bool, a string a string, and a set a
// sorted, duplicate-free []string of names.
type kind int8

const (
	kindInt kind = iota
	kindBool
	kindString
	kindSet
	// kindAny appears only in signatures: the argument may have any
	// kind, but it must have the first argument's.
	kindAny
)

func (k kind) String() string { return [...]string{"int", "bool", "string", "set", "T"}[k] }

// fn is one entry of the signature table: the argument kinds and the
// result kind of a builtin or operator, and what it computes.
// ParsePolicy checks every application against args and res, so do
// always gets len(args) values of the declared kinds, in x and y, and
// nil for the arguments it does not take.
type fn struct {
	args []kind
	res  kind
	// stop, for && and ||, is the left operand's value that decides
	// the result; the right operand is then not evaluated.
	stop any
	do   func(r *firmware.Report, x, y any) (any, error)
}

func kinds(ks []kind) string {
	s := make([]string, len(ks))
	for i, k := range ks {
		s[i] = k.String()
	}
	return strings.Join(s, ", ")
}

// accepts reports whether the arguments' kinds match the signature.
func (f *fn) accepts(args []expr) bool {
	if len(args) != len(f.args) {
		return false
	}
	for i, want := range f.args {
		if want == kindAny {
			want = args[0].kind
		}
		if args[i].kind != want {
			return false
		}
	}
	return true
}

var (
	bools = []kind{kindBool, kindBool}
	ints  = []kind{kindInt, kindInt}
	str1  = []kind{kindString}
	str2  = []kind{kindString, kindString}
)

// funcs is the signature table of the policy language: every operator
// (named by its token) and every builtin query over the report.
var funcs = map[string]*fn{
	"!": {args: []kind{kindBool}, res: kindBool, do: func(_ *firmware.Report, x, _ any) (any, error) {
		return !x.(bool), nil
	}},
	"&&": {args: bools, res: kindBool, stop: false, do: second},
	"||": {args: bools, res: kindBool, stop: true, do: second},
	"==": {args: []kind{kindAny, kindAny}, res: kindBool, do: func(_ *firmware.Report, x, y any) (any, error) {
		return equal(x, y), nil
	}},
	"!=": {args: []kind{kindAny, kindAny}, res: kindBool, do: func(_ *firmware.Report, x, y any) (any, error) {
		return !equal(x, y), nil
	}},
	"<":  {args: ints, res: kindBool, do: compare(func(x, y int64) bool { return x < y })},
	"<=": {args: ints, res: kindBool, do: compare(func(x, y int64) bool { return x <= y })},
	">":  {args: ints, res: kindBool, do: compare(func(x, y int64) bool { return x > y })},
	">=": {args: ints, res: kindBool, do: compare(func(x, y int64) bool { return x >= y })},
	"+": {args: ints, res: kindInt, do: arith(func(x, y int64) (int64, bool) {
		s := x + y
		return s, (s > x) == (y > 0)
	})},
	"-": {args: ints, res: kindInt, do: arith(func(x, y int64) (int64, bool) {
		d := x - y
		return d, (d < x) == (y > 0)
	})},
	"*": {args: ints, res: kindInt, do: arith(func(x, y int64) (int64, bool) {
		p := x * y
		return p, x == 0 || p/x == y && !(x == -1 && y == math.MinInt64)
	})},

	"count": {args: []kind{kindSet}, res: kindInt, do: func(_ *firmware.Report, x, _ any) (any, error) {
		return int64(len(x.([]string))), nil
	}},
	"contains": {args: []kind{kindSet, kindString}, res: kindBool, do: func(_ *firmware.Report, x, y any) (any, error) {
		return slices.Contains(x.([]string), y.(string)), nil
	}},
	"compartments": {res: kindSet, do: func(r *firmware.Report, _, _ any) (any, error) {
		var out []string
		for name := range r.Compartments {
			out = append(out, name)
		}
		return set(out), nil
	}},
	"compartment_exists": {args: str1, res: kindBool, do: func(r *firmware.Report, x, _ any) (any, error) {
		_, ok := r.Compartments[x.(string)]
		return ok, nil
	}},
	// Fig. 4: every compartment importing any entry of the target.
	"compartments_calling": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		return importers(r, "call", x.(string), "", true), nil
	}},
	"compartments_calling_entry": {args: str2, res: kindSet, do: func(r *firmware.Report, x, y any) (any, error) {
		return importers(r, "call", x.(string), y.(string), false), nil
	}},
	"compartments_with_mmio": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		return importers(r, "mmio", x.(string), "", true), nil
	}},
	// Who can present a given static sealed object, such as a delegated
	// allocation capability? The owner always holds its own allocation
	// capabilities and static sealed objects.
	"compartments_importing_sealed": {args: str2, res: kindSet, do: func(r *firmware.Report, x, y any) (any, error) {
		owner, obj := x.(string), y.(string)
		out := importers(r, "sealed-object", owner, obj, false)
		oc, ok := r.Compartments[owner]
		if ok && (slices.Contains(oc.StaticSealed, obj) ||
			slices.ContainsFunc(oc.AllocCaps, func(ac firmware.AllocCapReport) bool { return ac.Name == obj })) {
			out = set(append(out, owner))
		}
		return out, nil
	}},
	// Statically visible sharing (§3.2.5): every compartment with any
	// grant on a shared global, or with a read-write one.
	"compartments_sharing": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		return sharers(r, x.(string), ""), nil
	}},
	"writers_of": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		return sharers(r, x.(string), "rw"), nil
	}},
	"imports_of": {args: str1, res: kindSet, do: ofComp(func(c firmware.CompReport) any {
		var out []string
		for _, im := range c.Imports {
			entry := im.Target
			if im.Entry != "" {
				entry += "." + im.Entry
			}
			out = append(out, im.Kind+":"+entry)
		}
		return set(out)
	})},
	"exports_of": {args: str1, res: kindSet, do: ofComp(func(c firmware.CompReport) any {
		var out []string
		for _, ex := range c.Exports {
			out = append(out, ex.Function)
		}
		return set(out)
	})},
	"quota_of": {args: str1, res: kindInt, do: ofComp(func(c firmware.CompReport) any { return quota(c) })},
	"sum_quotas": {res: kindInt, do: func(r *firmware.Report, _, _ any) (any, error) {
		var total int64
		for _, c := range r.Compartments {
			total += quota(c)
		}
		return total, nil
	}},
	"heap_size": {res: kindInt, do: func(r *firmware.Report, _, _ any) (any, error) {
		return int64(r.HeapSize), nil
	}},
	"has_error_handler": {args: str1, res: kindBool, do: ofComp(func(c firmware.CompReport) any { return c.HasErrorHandler })},
	"code_size_of":      {args: str1, res: kindInt, do: ofComp(func(c firmware.CompReport) any { return int64(c.CodeSize) })},
	"threads_in": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		var out []string
		for _, th := range r.Threads {
			if th.Compartment == x.(string) {
				out = append(out, th.Name)
			}
		}
		return set(out), nil
	}},
	"thread_count": {res: kindInt, do: func(r *firmware.Report, _, _ any) (any, error) {
		return int64(len(r.Threads)), nil
	}},
	// Every "compartment.entry" and "library.entry" with the interrupt
	// posture, for auditing code that disables interrupts (§2.1).
	"exports_with_posture": {args: str1, res: kindSet, do: func(r *firmware.Report, x, _ any) (any, error) {
		var out []string
		add := func(owner string, exports []firmware.ExportReport) {
			for _, ex := range exports {
				if ex.Posture == x.(string) {
					out = append(out, owner+"."+ex.Function)
				}
			}
		}
		for name, c := range r.Compartments {
			add(name, c.Exports)
		}
		for name, l := range r.Libraries {
			add(name, l.Exports)
		}
		return set(out), nil
	}},
}

// eval evaluates a checked expression against a report. The only
// errors are those the report can cause: a queried compartment it
// lacks, and arithmetic on its numbers that overflows int64.
func (e *expr) eval(r *firmware.Report) (any, error) {
	if e.name == "" {
		return e.lit, nil
	}
	var a [2]any
	for i := range e.args {
		v, err := e.args[i].eval(r)
		if err != nil {
			return nil, err
		}
		if i == 0 && e.f.stop != nil && v == e.f.stop {
			return v, nil
		}
		a[i] = v
	}
	v, err := e.f.do(r, a[0], a[1])
	if err != nil {
		return nil, fmt.Errorf("line %d: %s: %w", e.line, e.name, err)
	}
	return v, nil
}

// second is && and || once the left operand has not decided them.
func second(_ *firmware.Report, _, y any) (any, error) { return y, nil }

// compare adapts an integer comparison.
func compare(f func(x, y int64) bool) func(*firmware.Report, any, any) (any, error) {
	return func(_ *firmware.Report, x, y any) (any, error) { return f(x.(int64), y.(int64)), nil }
}

// arith adapts an integer operator that reports whether its result
// fits in an int64.
func arith(f func(x, y int64) (int64, bool)) func(*firmware.Report, any, any) (any, error) {
	return func(_ *firmware.Report, x, y any) (any, error) {
		v, ok := f(x.(int64), y.(int64))
		if !ok {
			return nil, errors.New("overflows int64")
		}
		return v, nil
	}
}

// equal compares two values of one kind; sets compare name by name.
func equal(l, r any) bool {
	if s, ok := l.([]string); ok {
		return slices.Equal(s, r.([]string))
	}
	return l == r
}

// set sorts and deduplicates names into a set value.
func set(names []string) []string {
	slices.Sort(names)
	return slices.Compact(names)
}

// importers is the set of compartments with an import of the kind and
// target, and also of the entry unless anyEntry.
func importers(r *firmware.Report, kind, target, entry string, anyEntry bool) []string {
	var out []string
	for name, c := range r.Compartments {
		for _, im := range c.Imports {
			if im.Kind == kind && im.Target == target && (anyEntry || im.Entry == entry) {
				out = append(out, name)
				break
			}
		}
	}
	return set(out)
}

// sharers is the set of compartments granted a shared global, with the
// given access unless it is "".
func sharers(r *firmware.Report, global, access string) []string {
	var out []string
	for name, c := range r.Compartments {
		for _, sg := range c.SharedAccess {
			if sg.Name == global && (access == "" || sg.Access == access) {
				out = append(out, name)
				break
			}
		}
	}
	return set(out)
}

// ofComp builds a builtin over the compartment its one argument names;
// a report without that compartment is an error.
func ofComp(get func(c firmware.CompReport) any) func(*firmware.Report, any, any) (any, error) {
	return func(r *firmware.Report, x, _ any) (any, error) {
		c, ok := r.Compartments[x.(string)]
		if !ok {
			return nil, fmt.Errorf("no compartment %q", x)
		}
		return get(c), nil
	}
}

// quota is the sum of a compartment's allocation-capability quotas.
func quota(c firmware.CompReport) int64 {
	var total int64
	for _, ac := range c.AllocCaps {
		total += int64(ac.Quota)
	}
	return total
}
