package netsim

import (
	"github.com/cheriot-go/cheriot/internal/hw"
	"github.com/cheriot-go/cheriot/internal/netproto"
)

// NewDNSServer builds a host answering DNS queries on port 53 from a
// static name table (ip 0 = NXDOMAIN).
func NewDNSServer(ip uint32, names map[string]uint32) *ServerHost {
	s := NewServerHost(ip)
	s.HandleUDP(netproto.PortDNS, func(w *World, from netproto.Header, seg netproto.UDP) []byte {
		id, name, err := netproto.DecodeDNSQuery(seg.Data)
		if err != nil {
			return nil
		}
		return netproto.EncodeDNSReply(id, names[name])
	})
	return s
}

// NewNTPServer builds a host answering SNTP on port 123. Its notion of
// wall-clock time is baseUnixMillis plus elapsed simulated time.
func NewNTPServer(ip uint32, clock *hw.Clock, baseUnixMillis uint64) *ServerHost {
	s := NewServerHost(ip)
	s.HandleUDP(netproto.PortNTP, func(w *World, from netproto.Header, seg netproto.UDP) []byte {
		stamp, err := netproto.DecodeNTPRequest(seg.Data)
		if err != nil {
			return nil
		}
		now := baseUnixMillis + clock.Cycles()*1000/clock.Hz()
		return netproto.EncodeNTPReply(stamp, now)
	})
	return s
}

// NewSharedNTPServer builds an NTP host that can serve many Worlds at
// once: instead of capturing one device's clock it reads the clock of
// whichever World the request arrived on, so every device gets time
// consistent with its own simulation. A world's armed NTP skew (the
// clock-skew fault) offsets the answer. Used by the fleet's shared
// cloud.
func NewSharedNTPServer(ip uint32, baseUnixMillis uint64) *ServerHost {
	s := NewServerHost(ip)
	s.HandleUDP(netproto.PortNTP, func(w *World, from netproto.Header, seg netproto.UDP) []byte {
		stamp, err := netproto.DecodeNTPRequest(seg.Data)
		if err != nil {
			return nil
		}
		now := uint64(int64(baseUnixMillis+w.Now()*1000/w.Hz()) + w.NTPSkewMillis())
		return netproto.EncodeNTPReply(stamp, now)
	})
	return s
}

// NewGateway builds the local router: a DHCP server leasing the given
// device address (and answering pings at its own). The DHCP exchange
// happens before the client has an address, so replies go to broadcast.
func NewGateway(ip, leaseIP uint32) *ServerHost {
	s := NewServerHost(ip)
	s.HandleUDP(netproto.PortDHCPServer, func(w *World, from netproto.Header, seg netproto.UDP) []byte {
		m, err := netproto.DecodeDHCP(seg.Data)
		if err != nil {
			return nil
		}
		var reply netproto.DHCP
		switch m.Op {
		case netproto.DHCPDiscover:
			reply = netproto.DHCP{Op: netproto.DHCPOffer, XID: m.XID, YourIP: leaseIP, ServerIP: ip}
		case netproto.DHCPRequest:
			if m.YourIP != leaseIP {
				return nil // not our lease
			}
			reply = netproto.DHCP{Op: netproto.DHCPAck, XID: m.XID, YourIP: leaseIP, ServerIP: ip}
		default:
			return nil
		}
		// The client has no address yet: answer on the broadcast address.
		w.SendToDevice(netproto.EncodeHeader(netproto.Header{
			Dst: netproto.Broadcast, Src: ip, Proto: netproto.ProtoUDP,
		}, netproto.EncodeUDP(netproto.UDP{
			SrcPort: netproto.PortDHCPServer,
			DstPort: netproto.PortDHCPClient,
			Data:    netproto.EncodeDHCP(reply),
		})))
		return nil
	})
	return s
}
