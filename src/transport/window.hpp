// Window-based reliable transport engine.
//
// Implements the machinery every reactive baseline shares — MSS
// segmentation, cumulative ACKs (one per data packet, with precise per-packet
// ECN echo as DCTCP requires), go-back-N retransmission via 3-dupACK fast
// retransmit and an RTO timer, slow start, EWMA RTT estimation, and optional
// pacing (HULL). Protocol-specific congestion avoidance lives in subclasses
// via the on_ack_hook / on_loss_event hooks.
#pragma once

#include <map>

#include "net/packet.hpp"
#include "transport/connection.hpp"

namespace xpass::transport {

struct WindowConfig {
  double init_cwnd_pkts = 2.0;
  double min_cwnd_pkts = 2.0;   // DCTCP cannot go below 2 (paper §6.1)
  double max_cwnd_pkts = 1e9;
  sim::Time base_rtt = sim::Time::us(100);  // initial RTO / pacing seed
  sim::Time rto_min = sim::Time::ms(10);    // ns-2-era datacenter default
  bool pacing = false;
  // 3-way-handshake cost before data, like the paper's TCP stacks (and
  // like ExpressPass's credit request): SYN out, SYN-ACK back, then send.
  bool handshake = true;
  uint32_t mss = net::kMssBytes;
};

class WindowConnection : public Connection {
 public:
  WindowConnection(sim::Simulator& sim, const FlowSpec& spec,
                   const WindowConfig& cfg);
  ~WindowConnection() override;

  void start() override;
  void stop() override;

  double cwnd() const { return cwnd_; }
  sim::Time srtt() const { return srtt_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t timeouts() const { return timeouts_; }

 protected:
  // Called once per ACK that advances snd_una by `newly_acked` packets.
  virtual void on_ack_hook(const net::Packet& ack, uint64_t newly_acked) = 0;
  // Loss reaction; default: halve on fast-rtx, collapse to min on timeout.
  virtual void on_loss_event(bool timeout);
  // Packet demux; default handles kData/kAck. Subclasses may intercept
  // other types (e.g. RCP's SYN rate probe) and forward the rest here.
  virtual void on_packet(net::Packet&& p);
  // First transmission after handlers are registered; default starts the
  // window pump. RCP overrides to run a rate-probing handshake first.
  virtual void begin_sending();
  // Pacing rate when cfg.pacing is set; default cwnd/srtt.
  virtual double pace_rate_bps() const;
  void pump();  // send while window (and pacer) allow
  void arm_rto();

  void set_cwnd(double w);
  double min_cwnd() const { return cfg_.min_cwnd_pkts; }
  const WindowConfig& config() const { return cfg_; }
  bool in_slow_start() const { return cwnd_ < ssthresh_; }
  void exit_slow_start() { ssthresh_ = cwnd_; }
  uint64_t snd_una() const { return snd_una_; }
  uint64_t snd_nxt() const { return snd_nxt_; }

 private:
  void handle_data(const net::Packet& p);
  void handle_ack(const net::Packet& p);
  void transmit(uint64_t pkt_idx);
  void on_rto();

  WindowConfig cfg_;

  // Sender state (packet-index space).
  uint64_t total_pkts_ = 0;
  uint64_t snd_nxt_ = 0;
  uint64_t snd_una_ = 0;
  double cwnd_;
  double ssthresh_ = 1e9;
  uint32_t dup_acks_ = 0;
  bool started_ = false;
  bool sender_done_ = false;
  bool handshake_done_ = false;

  // Pacing.
  sim::Time next_release_;
  bool send_scheduled_ = false;

  // RTT / RTO.
  sim::Time srtt_;
  sim::Time rttvar_;
  bool have_rtt_ = false;
  sim::TimerId rto_timer_;
  uint32_t rto_backoff_ = 0;

  // Receiver state: cumulative point plus an out-of-order reassembly
  // buffer (seq -> payload bytes), so go-back-N retransmissions only
  // resend actual holes.
  uint64_t rcv_next_ = 0;
  std::map<uint64_t, uint32_t> rcv_ooo_;

  // Counters.
  uint64_t retransmits_ = 0;
  uint64_t timeouts_ = 0;
};

}  // namespace xpass::transport
