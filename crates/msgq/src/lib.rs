//! # msgq — the MSMQ analog
//!
//! The OFTT Message Diverter "uses Microsoft Message Queue … the message
//! queue will store and transmit messages to the primary copy of the
//! application. If a message is sent during a switchover, the message
//! non-delivery is detected and retried" (paper §2.2.3). This crate
//! reproduces the queue semantics that guarantee depends on:
//!
//! * **Store-and-forward** between per-node [`manager::QueueManager`]s with
//!   ack/retry — the sender holds a message until the destination manager
//!   acknowledges it.
//! * **Exactly-once acceptance**: the receiver's per-(queue, origin)
//!   sequence cursor drops retransmissions of anything already accepted.
//! * **TTL + dead-letter queue** for undeliverable messages.
//! * **Push delivery** to an attached consumer with redelivery on silence;
//!   *last attach wins*, so a newly promoted primary re-attaches and
//!   inherits pending traffic.
//! * **Retargeting** ([`manager::ManagerMsg::RetargetNode`]): the OFTT
//!   diverter repoints unacknowledged transfers at the new primary.
//!
//! ## Example
//!
//! Sending through the queue network from inside a process:
//!
//! ```no_run
//! use msgq::client::send_via_queue;
//! use msgq::queue::QueueAddress;
//! use ds_net::prelude::*;
//!
//! fn send_reading(env: &mut dyn ProcessEnv, primary: NodeId) {
//!     let dest = QueueAddress::new(primary, "app-in");
//!     send_via_queue(env, dest, "reading", &42.0f64, None).expect("marshal");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod manager;
pub mod queue;
pub mod shard;

/// Convenience re-exports of the items nearly every user needs.
pub mod prelude {
    pub use crate::client::{send_via_queue, QueueConsumer, SendError};
    pub use crate::manager::{
        manager_endpoint, service_name, ManagerMsg, Push, QueueConfig, QueueManager, QueueStats,
    };
    pub use crate::queue::{MessageId, QueueAddress, QueueMessage, QueueName};
}

pub use client::{send_via_queue, QueueConsumer};
pub use manager::{manager_endpoint, QueueConfig, QueueManager, QueueStats};
pub use queue::{MessageId, QueueAddress, QueueMessage, QueueName};
