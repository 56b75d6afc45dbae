package audit

import (
	"fmt"
	"strings"

	"github.com/cheriot-go/cheriot/internal/firmware"
)

// RuleResult is the outcome of checking one rule against a report.
type RuleResult struct {
	Rule   string
	Passed bool
	// Err is non-nil when the rule failed to evaluate (as opposed to
	// evaluating to false); an unevaluable rule fails the audit.
	Err error
}

// Result is the outcome of a full audit.
type Result struct {
	Rules []RuleResult
}

// Passed reports whether every rule held.
func (r *Result) Passed() bool {
	for _, rr := range r.Rules {
		if !rr.Passed {
			return false
		}
	}
	return true
}

// Failures lists the names of failed rules.
func (r *Result) Failures() []string {
	var out []string
	for _, rr := range r.Rules {
		if !rr.Passed {
			out = append(out, rr.Rule)
		}
	}
	return out
}

// String renders a human-readable audit summary.
func (r *Result) String() string {
	var sb strings.Builder
	for _, rr := range r.Rules {
		status := "PASS"
		if !rr.Passed {
			status = "FAIL"
		}
		fmt.Fprintf(&sb, "%s  %s", status, rr.Rule)
		if rr.Err != nil {
			fmt.Fprintf(&sb, "  (%v)", rr.Err)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Check evaluates the policy against a firmware report. Integrators run
// it before signing an image (§4); a supply-chain change that adds an
// import, an MMIO grant, or a quota shows up in the report and trips the
// corresponding rule.
func (p *Policy) Check(report *firmware.Report) *Result {
	res := &Result{Rules: make([]RuleResult, 0, len(p.Rules))}
	for i := range p.Rules {
		rule := &p.Rules[i]
		v, err := rule.body.eval(report)
		res.Rules = append(res.Rules, RuleResult{Rule: rule.Name, Passed: err == nil && v.(bool), Err: err})
	}
	return res
}

// CheckSource parses and checks a policy in one call.
func CheckSource(policySrc string, report *firmware.Report) (*Result, error) {
	p, err := ParsePolicy(policySrc)
	if err != nil {
		return nil, err
	}
	return p.Check(report), nil
}
