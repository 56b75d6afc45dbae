package core

import (
	"testing"

	"github.com/cheriot-go/cheriot/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }
