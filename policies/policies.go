// Package policies embeds the integrator policies the repository ships,
// so that programs and tests check firmware against the very bytes of
// the .rego files integrators read.
package policies

import _ "embed"

// FleetDevice is fleet-device.rego: the launch policy fleet.Run checks
// every deployed firmware shape against before any device boots.
//
//go:embed fleet-device.rego
var FleetDevice string

// IoTDevice is iot-device.rego: the policy for the §5.3.3 IoT case
// study's firmware.
//
//go:embed iot-device.rego
var IoTDevice string
