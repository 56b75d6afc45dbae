package audit_test

import (
	"reflect"
	"strings"
	"testing"

	"github.com/cheriot-go/cheriot/internal/api"
	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/internal/firmware"
)

func nop(ctx api.Context, args []api.Value) []api.Value { return nil }

// httpClientImage builds the Fig. 4 scenario: an HTTP client importing
// the network API's socket-connect entry point.
func httpClientImage() *firmware.Image {
	img := firmware.NewImage("http-firmware")
	img.AddCompartment(&firmware.Compartment{
		Name: "NetAPI", CodeSize: 4096, DataSize: 256,
		Exports: []*firmware.Export{
			{Name: "network_socket_connect_tcp", MinStack: 512, Entry: nop},
		},
		AllocCaps: []firmware.AllocCap{{Name: "netbufs", Quota: 16384}},
		Imports:   []firmware.Import{{Kind: firmware.ImportMMIO, Target: firmware.DeviceNet}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "http_client", CodeSize: 2048, DataSize: 128,
		Imports: []firmware.Import{
			{Kind: firmware.ImportCall, Target: "NetAPI", Entry: "network_socket_connect_tcp"},
		},
		Exports: []*firmware.Export{{Name: "run", MinStack: 1024, Entry: nop}},
	})
	img.AddCompartment(&firmware.Compartment{
		Name: "liblzma", CodeSize: 8192, DataSize: 64,
		Exports: []*firmware.Export{{Name: "decompress", MinStack: 2048, Entry: nop}},
	})
	img.AddThread(&firmware.Thread{Name: "main", Compartment: "http_client", Entry: "run",
		Priority: 1, StackSize: 4096, TrustedStackFrames: 8})
	return img
}

func report(t *testing.T, img *firmware.Image) *firmware.Report {
	t.Helper()
	r, err := firmware.BuildReport(img)
	if err != nil {
		t.Fatalf("BuildReport: %v", err)
	}
	return r
}

// TestFig4Policy reproduces the paper's Fig. 4 check: there must be only
// one caller of the network API.
func TestFig4Policy(t *testing.T) {
	rep := report(t, httpClientImage())
	res, err := audit.CheckSource(`
		# Fig. 4: there must be only one caller to the network API.
		rule single_net_caller {
			count(compartments_calling("NetAPI")) == 1
		}
	`, rep)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("policy failed:\n%s", res)
	}
}

// TestSupplyChainBackdoorDetected reproduces the §5.1.3 liblzma case
// study: a backdoored release that starts importing the network API is
// mechanically detected at integration time.
func TestSupplyChainBackdoorDetected(t *testing.T) {
	policy := `
		rule single_net_caller {
			count(compartments_calling("NetAPI")) == 1
		}
		rule lzma_has_no_network {
			!contains(compartments_calling("NetAPI"), "liblzma")
		}
		rule lzma_is_pure {
			count(imports_of("liblzma")) == 0
		}
	`
	// Clean firmware passes.
	clean := report(t, httpClientImage())
	res, err := audit.CheckSource(policy, clean)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("clean firmware failed:\n%s", res)
	}

	// The backdoored liblzma declares a dependency on the network API —
	// without it, its calls would trap at run time (§3.2.5), so the
	// attacker must surface it in the report.
	backdoored := httpClientImage()
	backdoored.Compartment("liblzma").AddImport(
		firmware.ImportCall, "NetAPI", "network_socket_connect_tcp")
	res, err = audit.CheckSource(policy, report(t, backdoored))
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("backdoored firmware passed the audit")
	}
	fails := strings.Join(res.Failures(), ",")
	if !strings.Contains(fails, "single_net_caller") ||
		!strings.Contains(fails, "lzma_has_no_network") ||
		!strings.Contains(fails, "lzma_is_pure") {
		t.Fatalf("failures = %s", fails)
	}
}

func TestQuotaAndMMIOQueries(t *testing.T) {
	rep := report(t, httpClientImage())
	res, err := audit.CheckSource(`
		# System-wide: allocation quotas must fit the heap (§4).
		rule quotas_fit_heap { sum_quotas() <= heap_size() }
		# Only the network compartment touches the NIC.
		rule nic_exclusive {
			compartments_with_mmio("net") == compartments_calling_entry("NetAPI", "no_such") ||
			count(compartments_with_mmio("net")) == 1
		}
		rule nic_is_netapi { contains(compartments_with_mmio("net"), "NetAPI") }
		rule netapi_quota { quota_of("NetAPI") == 16384 }
		rule client_has_thread { count(threads_in("http_client")) == 1 }
		rule lzma_code_bounded { code_size_of("liblzma") <= 10000 }
	`, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("failed:\n%s", res)
	}
}

func TestPostureAudit(t *testing.T) {
	img := httpClientImage()
	img.Compartment("NetAPI").Exports = append(img.Compartment("NetAPI").Exports,
		&firmware.Export{Name: "irq_off_fn", MinStack: 128,
			Posture: firmware.PostureDisabled, Entry: nop})
	rep := report(t, img)
	res, err := audit.CheckSource(`
		rule only_netapi_disables_irqs {
			exports_with_posture("disabled") == exports_with_posture("disabled") &&
			count(exports_with_posture("disabled")) == 1 &&
			contains(exports_with_posture("disabled"), "NetAPI.irq_off_fn")
		}
	`, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("failed:\n%s", res)
	}
}

// TestPolicyParseErrors: a malformed or ill-typed policy must be
// refused, either when it is parsed or by a rule that fails with an
// error; it never passes.
func TestPolicyParseErrors(t *testing.T) {
	cases := []string{
		``,                                       // no rules
		`rule x { `,                              // unterminated
		`rule x { true } rule x { true }`,        // duplicate rule name
		`rule x { foo }`,                         // bare identifier
		`rule x { unknown_fn() }`,                // unknown function
		`rule x { 1 + }`,                         // bad expression
		`rule x { "unterminated }`,               // bad string
		`rule x { count(1) == 1 }`,               // argument of the wrong kind
		`rule x { 5 }`,                           // non-boolean rule
		`rule x { 1 == "one" }`,                  // cross-type comparison
		`rule x { true && 3 == (} }`,             // garbage
		`rule x { 1 < 2 < 3 }`,                   // comparisons do not chain
		`rule x { 1 == 1 == true }`,              // ...not even when the kinds fit
		`rule x { count(compartments(),) == 0 }`, // trailing comma
		"rule a { true }\x00rule b { false }",    // a NUL byte does not end the policy
		"rule x { \"a\x00b\" == \"ab\" }",        // ...nor a string
		// Unknown names are refused even where evaluation would not
		// reach them.
		`rule r { true || bogus_builtin() }`,
		// Extra arguments are not dropped.
		`rule r { compartments_calling("a", 7) == compartments_calling("a") }`,
		`rule r { heap_size(1, 2, 3) > 0 }`,
		// Arguments need a comma between them.
		`rule r { count(compartments_calling_entry("NetAPI" "network_socket_connect_tcp")) == 1 }`,
		// Integer arithmetic does not wrap.
		`rule r { 9223372036854775807 + 1 < 0 }`,
		`rule r { 0 - 9223372036854775807 - 2 < 0 }`,
		`rule r { 4611686018427387904 * 2 < 0 }`,
	}
	rep := report(t, httpClientImage())
	for _, src := range cases {
		pol, err := audit.ParsePolicy(src)
		if err != nil {
			continue // parse-time rejection is fine
		}
		res := pol.Check(rep)
		if res.Passed() || res.Rules[0].Err == nil {
			t.Errorf("policy %q: %v; want a parse error or a rule failing with an error", src, res.Rules[0])
		}
	}
}

// TestNULByteInStringIsUnexpected: a NUL byte inside a string literal
// is an unexpected character, not the end of the source.
func TestNULByteInStringIsUnexpected(t *testing.T) {
	_, err := audit.ParsePolicy("rule x { \"a\x00b\" == \"ab\" }")
	if err == nil || !strings.Contains(err.Error(), "unexpected character") {
		t.Fatalf("got %v, want an unexpected character", err)
	}
}

// FuzzPolicy checks arbitrary policies against arbitrary reports:
// ParsePolicy, ParseReport and Check never panic, checking a policy
// twice gives the same Result, and no rule both passes and carries an
// error. A report that does not parse is replaced by the Fig. 4
// firmware's, so every policy that parses is checked. The seed corpus,
// testdata/fuzz/FuzzPolicy, pairs the cheriot-audit -demo report with
// both shipped policies, the Fig. 4 and supply-chain policies, and six
// malformed policies: an unknown name behind ||, extra arguments, a
// missing comma, int64 overflow, a nullary builtin given arguments and
// a NUL byte between two rules.
func FuzzPolicy(f *testing.F) {
	fallback, err := firmware.BuildReport(httpClientImage())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string, reportJSON []byte) {
		rep, err := firmware.ParseReport(reportJSON)
		if err != nil {
			rep = fallback
		}
		pol, err := audit.ParsePolicy(src)
		if err != nil {
			return
		}
		res := pol.Check(rep)
		if again := pol.Check(rep); !reflect.DeepEqual(res, again) {
			t.Fatalf("two checks of %q differ:\n%s\n%s", src, res, again)
		}
		for _, rr := range res.Rules {
			if rr.Passed && rr.Err != nil {
				t.Fatalf("rule %s passed with error %v", rr.Rule, rr.Err)
			}
		}
	})
}

func TestOperatorPrecedenceAndArity(t *testing.T) {
	rep := report(t, httpClientImage())
	// Arithmetic binds tighter than comparison, comparison tighter than
	// &&, which binds tighter than ||.
	res, err := audit.CheckSource(`
		rule precedence_arith { 2 + 3 * 4 == 14 }
		rule precedence_bool  { false && false || true }
		rule precedence_mixed { 1 + 1 == 2 && 2 * 2 == 4 || false }
		rule parens           { (2 + 3) * 4 == 20 }
		rule negation         { !(1 == 2) }
		rule subtraction      { 10 - 3 - 2 == 5 }
		rule min_int          { 0 - 9223372036854775807 - 1 < 0 }
		rule negative_product { (0 - 1) * (0 - 9223372036854775807) == 9223372036854775807 }
	`, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("precedence rules failed:\n%s", res)
	}

	// Wrong arity or kinds fail to parse; a compartment the report
	// lacks fails the rule with an error.
	for _, src := range []string{
		`rule x { count() == 0 }`,
		`rule x { count("not-a-set") == 0 }`,
		`rule x { contains(compartments(), 5) }`,
		`rule x { quota_of() == 0 }`,
		`rule x { code_size_of("ghost") == 0 }`,
		`rule x { compartments() + 1 == 1 }`,
	} {
		pol, err := audit.ParsePolicy(src)
		if err != nil {
			continue
		}
		res := pol.Check(rep)
		if res.Passed() {
			t.Errorf("policy %q passed, want evaluation failure", src)
		}
		if res.Rules[0].Err == nil {
			t.Errorf("policy %q failed without an error message", src)
		}
	}
}

func TestDualSigningPolicy(t *testing.T) {
	// Two entities each check their own policy over the same report (§4).
	rep := report(t, httpClientImage())
	vendorA := `rule my_code_untouched { contains(exports_of("liblzma"), "decompress") }`
	vendorB := `rule i_am_the_only_network_user {
		compartments_calling("NetAPI") == threads_in("no_such_compartment") ||
		contains(compartments_calling("NetAPI"), "http_client")
	}`
	for _, pol := range []string{vendorA, vendorB} {
		res, err := audit.CheckSource(pol, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed() {
			t.Fatalf("policy %q failed:\n%s", pol, res)
		}
	}
}
