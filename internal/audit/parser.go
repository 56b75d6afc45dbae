package audit

import "fmt"

// expr is a type-checked policy expression: a literal, or a builtin or
// operator applied to its arguments. ParsePolicy checks every
// application against the signature table, funcs, so evaluation never
// meets an unknown name or a wrong number or kind of arguments.
type expr struct {
	lit  any    // the literal's value, when name is ""
	name string // the builtin or operator applied
	f    *fn    // its entry in funcs
	args []expr
	kind kind
	line int
}

// Rule is one named policy requirement.
type Rule struct {
	Name string
	Line int
	body expr
}

// Policy is a parsed, type-checked rego-lite policy: every rule must
// hold for the firmware to pass.
type Policy struct {
	Rules []Rule
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }

// next consumes the current token; it never moves past the end.
func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	return p.cur().kind == kind && p.cur().text == text
}

func (p *parser) expect(kind tokenKind, text string) error {
	if t := p.cur(); !p.at(kind, text) {
		return fmt.Errorf("line %d: expected %q, found %q", t.line, text, t.text)
	}
	p.next()
	return nil
}

// ParsePolicy parses rego-lite source into a Policy and type-checks it:
// every name must be a builtin, every call and operator must get the
// number and kinds of arguments its signature declares, and every rule
// must be a bool.
//
//	rule quota_bounded { sum_quotas() <= heap_size() }
func ParsePolicy(src string) (*Policy, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var pol Policy
	seen := map[string]bool{}
	for p.cur().kind != tokEOF {
		if err := p.expect(tokIdent, "rule"); err != nil {
			return nil, err
		}
		name := p.next()
		if name.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected rule name", name.line)
		}
		if seen[name.text] {
			return nil, fmt.Errorf("line %d: duplicate rule %q", name.line, name.text)
		}
		seen[name.text] = true
		if err := p.expect(tokPunct, "{"); err != nil {
			return nil, err
		}
		body, err := p.parseBinary(1)
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokPunct, "}"); err != nil {
			return nil, err
		}
		if body.kind != kindBool {
			return nil, fmt.Errorf("line %d: rule %q is %s, not bool", name.line, name.text, body.kind)
		}
		pol.Rules = append(pol.Rules, Rule{Name: name.text, Line: name.line, body: body})
	}
	if len(pol.Rules) == 0 {
		return nil, fmt.Errorf("audit: policy has no rules")
	}
	return &pol, nil
}

// prec ranks the binary operators, tighter-binding higher. Every one is
// left-associative, except that comparisons do not chain.
var prec = map[string]int{
	"||": 1, "&&": 2,
	"==": cmp, "!=": cmp, "<": cmp, "<=": cmp, ">": cmp, ">=": cmp,
	"+": 4, "-": 4, "*": 5,
}

const cmp = 3

// opPrec is the precedence of the current token, or 0 if it is not a
// binary operator.
func (p *parser) opPrec() int {
	if p.cur().kind != tokOp {
		return 0
	}
	return prec[p.cur().text]
}

// parseBinary parses unary expressions joined by binary operators of
// precedence atLeast or tighter, by precedence climbing.
func (p *parser) parseBinary(atLeast int) (expr, error) {
	l, err := p.parseUnary()
	for err == nil && p.opPrec() >= atLeast {
		lv := p.opPrec()
		op := p.next()
		var r expr
		if r, err = p.parseBinary(lv + 1); err == nil {
			l, err = apply(op, l, r)
		}
		if err == nil && lv == cmp && p.opPrec() == cmp {
			err = fmt.Errorf("line %d: comparisons do not chain", p.cur().line)
		}
	}
	return l, err
}

func (p *parser) parseUnary() (expr, error) {
	if t := p.cur(); p.at(tokOp, "!") {
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return expr{}, err
		}
		return apply(t, x)
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (expr, error) {
	t := p.next()
	switch {
	case t.kind == tokInt:
		return expr{lit: t.num, kind: kindInt}, nil
	case t.kind == tokString:
		return expr{lit: t.text, kind: kindString}, nil
	case t.kind == tokIdent && (t.text == "true" || t.text == "false"):
		return expr{lit: t.text == "true", kind: kindBool}, nil
	case t.kind == tokIdent && p.at(tokPunct, "("):
		p.next()
		var args []expr
		for !p.at(tokPunct, ")") {
			if len(args) > 0 {
				if err := p.expect(tokPunct, ","); err != nil {
					return expr{}, err
				}
			}
			a, err := p.parseBinary(1)
			if err != nil {
				return expr{}, err
			}
			args = append(args, a)
		}
		p.next()
		return apply(t, args...)
	case t.kind == tokIdent:
		return expr{}, fmt.Errorf("line %d: bare identifier %q (did you mean %s(...)?)", t.line, t.text, t.text)
	case t.kind == tokPunct && t.text == "(":
		e, err := p.parseBinary(1)
		if err != nil {
			return expr{}, err
		}
		return e, p.expect(tokPunct, ")")
	}
	return expr{}, fmt.Errorf("line %d: unexpected token %q", t.line, t.text)
}

// apply type-checks the builtin or operator t names against its
// signature in funcs, applied to args.
func apply(t token, args ...expr) (expr, error) {
	f, ok := funcs[t.text]
	if !ok {
		return expr{}, fmt.Errorf("line %d: unknown function %q", t.line, t.text)
	}
	if !f.accepts(args) {
		got := make([]kind, len(args))
		for i, a := range args {
			got[i] = a.kind
		}
		return expr{}, fmt.Errorf("line %d: %s takes (%s), not (%s)", t.line, t.text, kinds(f.args), kinds(got))
	}
	return expr{name: t.text, f: f, args: args, kind: f.res, line: t.line}, nil
}
