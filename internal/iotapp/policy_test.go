package iotapp

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/audit"
	"github.com/cheriot-go/cheriot/internal/firmware"
	"github.com/cheriot-go/cheriot/policies"
)

// TestShippedPolicyPasses checks the repository's integrator policy
// against the IoT deployment's firmware report — the full §4 workflow the
// cheriot-audit tool automates.
func TestShippedPolicyPasses(t *testing.T) {
	app, err := Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer app.Shutdown()

	res, err := audit.CheckSource(policies.IoTDevice, app.Sys.Report)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	if !res.Passed() {
		t.Fatalf("the shipped policy fails on the shipped firmware:\n%s", res)
	}
	if len(res.Rules) < 8 {
		t.Fatalf("only %d rules evaluated; policy file truncated?", len(res.Rules))
	}
}

// TestShippedPolicyCatchesBackdoor: adding a single illegitimate import to
// the JS app trips the policy, end to end.
func TestShippedPolicyCatchesBackdoor(t *testing.T) {
	app, err := Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	app.Shutdown()

	// Backdoor the image at the build level and re-link.
	img := app.Image
	img.Compartment("jsapp").AddImport(firmware.ImportCall, "tcpip", "sock_tcp_connect")
	rep, err := firmware.BuildReport(img)
	if err != nil {
		t.Fatalf("relink: %v", err)
	}
	res, err := audit.CheckSource(policies.IoTDevice, rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("the backdoored firmware passed the shipped policy")
	}
	found := false
	for _, f := range res.Failures() {
		if f == "jsapp_cannot_touch_tcpip" {
			found = true
		}
	}
	if !found {
		t.Fatalf("failures = %v, want jsapp_cannot_touch_tcpip", res.Failures())
	}
}
