// Package platform catalogs the multi-computer systems of the paper's
// experimentation environment (§3.1): host CPU models and the network
// fabric each configuration uses. Calibration constants (instruction
// rates, memory bandwidth) are chosen so that the simulated results land
// in the same regime as the paper's measurements; TestTable3AgainstPaper
// in internal/bench checks the fit.
package platform

import (
	"fmt"
	"time"

	"tooleval/internal/simnet"
)

// Host models one node type: its clock rate as reported in the paper and
// the derived calibration constants used by the cost models.
type Host struct {
	Name     string
	ClockMHz float64
	// OpsPerSec is the sustained rate at which the host retires the
	// "operations" that tool software paths and application kernels are
	// costed in. It folds in 1995-era memory systems and compilers, so it
	// is well below ClockMHz * 1e6.
	OpsPerSec float64
	// MemCopyBps is sustainable single-copy memory bandwidth, which
	// bounds loopback (intra-host) message hops.
	MemCopyBps float64
	// SyscallTime is the fixed kernel-entry cost charged by transports
	// per chunk handed to or received from the network.
	SyscallTime time.Duration
}

// CostOf converts an operation count into CPU time on this host.
func (h Host) CostOf(ops float64) time.Duration {
	if ops <= 0 {
		return 0
	}
	return time.Duration(ops / h.OpsPerSec * float64(time.Second))
}

// Hosts from §3.1. Instruction rates are calibrated against the paper's
// single-processor application times (Figures 5-8): the Alpha cluster is
// the fastest platform, the SP-1 nodes roughly half its speed, and the
// SPARCstations trail well behind.
var (
	// SunELC: SPARCstation ELC, 33 MHz, the SUN/Ethernet stations.
	SunELC = Host{Name: "SUN SPARCstation ELC", ClockMHz: 33, OpsPerSec: 8e6, MemCopyBps: 18e6, SyscallTime: 120 * time.Microsecond}
	// SunIPX: SPARCstation IPX, 40 MHz, the ATM LAN/WAN stations.
	SunIPX = Host{Name: "SUN SPARCstation IPX", ClockMHz: 40, OpsPerSec: 12e6, MemCopyBps: 25e6, SyscallTime: 90 * time.Microsecond}
	// AlphaWS: DEC Alpha workstation, 150 MHz, the FDDI cluster.
	AlphaWS = Host{Name: "DEC Alpha 150MHz", ClockMHz: 150, OpsPerSec: 55e6, MemCopyBps: 80e6, SyscallTime: 30 * time.Microsecond}
	// RS6000: IBM RISC System/6000 370, 62.5 MHz, the SP-1 nodes.
	RS6000 = Host{Name: "IBM RS/6000 370", ClockMHz: 62.5, OpsPerSec: 25e6, MemCopyBps: 45e6, SyscallTime: 50 * time.Microsecond}
)

// Platform is one platform/network configuration from §3.1.
type Platform struct {
	// Key is the stable identifier used by the CLI and the benchmark
	// harness (e.g. "sun-ethernet").
	Key string
	// Name is the label the paper uses.
	Name        string
	Description string
	Host        Host
	// MaxProcs is the largest processor count the paper sweeps on this
	// platform (8 for the clusters, 4 for NYNET).
	MaxProcs int
	// Tools lists the message-passing tools with ports to this platform
	// in the paper (Express was not available on NYNET).
	Tools []string
	// NewNetwork builds a fresh fabric instance for one simulation.
	NewNetwork func(stations int) simnet.Network
}

// Supports reports whether the named tool has a port to this platform.
func (p Platform) Supports(tool string) bool {
	for _, t := range p.Tools {
		if t == tool {
			return true
		}
	}
	return false
}

// NewLoopback builds the per-station intra-host channels for this
// platform's host type.
func (p Platform) NewLoopback(stations int) simnet.Network {
	return simnet.NewLoopback(stations, p.Host.MemCopyBps, p.Host.SyscallTime)
}

var catalog = []Platform{
	{
		Key:         "sun-ethernet",
		Name:        "SUN/Ethernet",
		Description: "SPARCstation ELCs on a shared 10 Mbit/s Ethernet segment",
		Host:        SunELC,
		MaxProcs:    8,
		Tools:       []string{"p4", "pvm", "express"},
		NewNetwork:  func(n int) simnet.Network { return simnet.NewEthernet10(n) },
	},
	{
		Key:         "sun-atm-lan",
		Name:        "SUN/ATM LAN",
		Description: "SPARCstation IPXs on a FORE ATM switch, 140 Mbit/s TAXI interfaces",
		Host:        SunIPX,
		MaxProcs:    8,
		Tools:       []string{"p4", "pvm", "express"},
		NewNetwork:  func(n int) simnet.Network { return simnet.NewATMLAN(n) },
	},
	{
		Key:         "sun-atm-wan",
		Name:        "SUN/ATM WAN (NYNET)",
		Description: "SPARCstation IPXs across the NYNET OC-3 ATM WAN (Syracuse-Rome)",
		Host:        SunIPX,
		MaxProcs:    4,
		Tools:       []string{"p4", "pvm"}, // Express had no NYNET port (Figs 2-4, 7)
		NewNetwork:  func(n int) simnet.Network { return simnet.NewATMWAN(n) },
	},
	{
		Key:         "alpha-fddi",
		Name:        "ALPHA/FDDI",
		Description: "8 DEC Alpha workstations on dedicated switched FDDI segments",
		Host:        AlphaWS,
		MaxProcs:    8,
		Tools:       []string{"p4", "pvm", "express"},
		NewNetwork:  func(n int) simnet.Network { return simnet.NewFDDISwitched(n) },
	},
	{
		Key:         "sp1-switch",
		Name:        "IBM-SP1 (Switch)",
		Description: "16-node IBM SP-1, Allnode crossbar switch interconnect",
		Host:        RS6000,
		MaxProcs:    8,
		Tools:       []string{"p4", "pvm", "express"},
		NewNetwork:  func(n int) simnet.Network { return simnet.NewAllnode(n) },
	},
	{
		Key:         "sp1-ethernet",
		Name:        "IBM-SP1 (Ethernet)",
		Description: "IBM SP-1 nodes over the dedicated Ethernet",
		Host:        RS6000,
		MaxProcs:    8,
		Tools:       []string{"p4", "pvm", "express"},
		NewNetwork:  func(n int) simnet.Network { return simnet.NewDedicatedEthernet(n) },
	},
}

// All returns the full platform catalog in the paper's order.
func All() []Platform {
	out := make([]Platform, len(catalog))
	copy(out, catalog)
	return out
}

// Get returns the platform with the given key.
func Get(key string) (Platform, error) {
	for _, p := range catalog {
		if p.Key == key {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("platform: unknown key %q (known: %v)", key, Keys())
}

// Keys returns all platform keys in catalog order.
func Keys() []string {
	ks := make([]string, len(catalog))
	for i, p := range catalog {
		ks[i] = p.Key
	}
	return ks
}
