//! DNS wire format and zone files.
//!
//! This crate implements the subset of RFC 1035 (plus AAAA from RFC 3596 and
//! DS from RFC 4034) needed to run a faithful active-DNS measurement
//! pipeline:
//!
//! * [`Name`] — wire-format domain names with RFC 1035 §4.1.4 message
//!   compression on encode, and [`NameSlice`], their borrowed form, which
//!   name-keyed maps are probed with.
//! * [`Record`] / [`RData`] — resource records: A, AAAA, NS, CNAME, SOA, MX,
//!   TXT, DS.
//! * [`Message`] — full query/response messages with header flags, questions
//!   and the three record sections.
//! * [`MessageView`] — the one decoder: it validates a message in a single
//!   pass (pointer chasing with loop protection included) and then reads
//!   it in place, copying out only the names and records a caller keeps.
//!   [`Message::decode`] is `MessageView::parse` plus `to_message`.
//! * [`zone`] — an in-memory zone representation plus a master-file-style
//!   textual format, used by the registry simulator to publish the daily
//!   TLD zones and by the authoritative servers to answer from them
//!   without copying records.
//!
//! Everything round-trips: `decode(encode(m)) == m` is enforced by unit and
//! property tests, and malformed input never panics — decoding returns
//! [`WireError`].
//!
//! ```
//! use ruwhere_dns::{Message, RData, RType, Rcode, Record};
//!
//! let query = Message::query(7, "example.ru".parse().unwrap(), RType::A);
//! let mut resp = Message::response_to(&query, Rcode::NoError);
//! resp.answers.push(Record::new(
//!     "example.ru".parse().unwrap(),
//!     300,
//!     RData::A("192.0.2.1".parse().unwrap()),
//! ));
//! let wire = resp.encode().unwrap();
//! assert_eq!(Message::decode(&wire).unwrap(), resp);
//! ```

// The only unsafe code is the `&[u8]` → `&NameSlice` cast in `name.rs`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod message;
pub mod name;
pub mod rdata;
pub mod view;
pub mod wire;
pub mod zone;

pub use message::{Flags, Message, Opcode, Question, Rcode};
pub use name::{Name, NameSlice, MAX_NAME_LEN};
pub use rdata::{encode_record, RData, RType, Record, SoaData, CLASS_IN};
pub use view::{MessageView, NameView, QuestionView, Questions, RecordView, Records};
pub use wire::{WireError, MAX_MESSAGE_SIZE};
pub use zone::Zone;
