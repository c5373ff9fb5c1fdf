"""Configuration knobs for MopEye and its ablations.

Defaults are the paper's final design; each alternative value is a
mechanism the paper measured against (Tables 1-4, Figure 5) or a
baseline system's behaviour (ToyVpn, PrivacyGuard, Haystack).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MopEyeConfig:
    package: str = "com.mopeye"

    # -- section 3.1: TUN packet retrieval ---------------------------------
    # "blocking": the paper's zero-delay design (fcntl/reflection/API).
    # "sleep": fixed-interval polling (ToyVpn=100 ms, PrivacyGuard=20 ms).
    # "adaptive": ToyVpn's "intelligent" sleeping (stop sleeping on
    # consecutive reads), also used by Haystack.
    tun_read_mode: str = "blocking"
    tun_read_sleep_ms: float = 100.0
    adaptive_min_sleep_ms: float = 0.1
    adaptive_max_sleep_ms: float = 25.0
    # Haystack-style pollers sleep between *every* read instead of
    # draining bursts, which throttles the uplink (Table 3).
    poll_one_per_interval: bool = False

    # -- section 3.5.1: dispatching packets to the tunnel --------------------
    # "queueWrite": dedicated TunWriter thread (the design).
    # "directWrite": every producer writes the shared tun fd itself.
    write_scheme: str = "queueWrite"
    # "newPut": spin-counter enqueue; "oldPut": classic wait/notify.
    put_scheme: str = "newPut"
    # newPut sleep-counter threshold (checks before parking in wait()).
    # 600 x 0.05 ms ~= 30 ms of checking -- enough to ride out a normal
    # request/response RTT without touching the monitor.
    put_counter_threshold: int = 600
    spin_check_interval_ms: float = 0.05

    # -- section 3.3: packet-to-app mapping ------------------------------------
    # "lazy" (the design), "eager" (per-SYN parse in the data path),
    # "cache" (Haystack-style endpoint cache; can misattribute), "off".
    mapping_mode: str = "lazy"
    lazy_wait_slice_ms: float = 50.0  # helper threads' sleep period

    # -- section 3.4: user-space TCP tuning ---------------------------------------
    mss: int = 1460
    window: int = 65535

    # -- section 3.5.2: socket exemption --------------------------------------------
    # "disallow": addDisallowedApplication at init (Android 5.0+).
    # "protect": per-socket protect() in the socket-connect thread.
    # "auto": disallow when the SDK allows it, else protect.
    protect_mode: str = "auto"

    # -- section 2.4: measurement --------------------------------------------------------
    # "blocking_thread": temporary blocking-mode socket-connect thread
    # (accurate).  "selector": non-blocking connect completed via the
    # main selector loop (the inaccurate alternative MopEye avoids).
    connect_mode: str = "blocking_thread"
    # DNS measurement on UDP port 53 relays.
    measure_dns: bool = True

    # -- inspection overhead (zero for MopEye; Haystack pays this) -------------------
    per_packet_inspection_ms: float = 0.0
    per_connection_buffer_bytes: int = 2 * 65535
    base_memory_bytes: int = 12 * 1024 * 1024

    def validate(self) -> "MopEyeConfig":
        allowed = {
            "tun_read_mode": ("blocking", "sleep", "adaptive"),
            "write_scheme": ("queueWrite", "directWrite"),
            "put_scheme": ("newPut", "oldPut"),
            "mapping_mode": ("lazy", "eager", "cache", "off"),
            "protect_mode": ("auto", "disallow", "protect"),
            "connect_mode": ("blocking_thread", "selector"),
        }
        for attr, values in allowed.items():
            if getattr(self, attr) not in values:
                raise ValueError("%s must be one of %s, got %r"
                                 % (attr, values, getattr(self, attr)))
        if self.mss <= 0 or self.window <= 0:
            raise ValueError("mss and window must be positive")
        return self
