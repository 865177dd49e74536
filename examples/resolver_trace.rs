//! A dig(+trace)-style tool over the simulated Internet: resolve any name
//! from the study world and print the full referral walk.
//!
//! ```sh
//! cargo run --release --example resolver_trace [name] [A|NS|MX]
//! # e.g.
//! cargo run --release --example resolver_trace ns4-cloud.nic.ru A
//! ```
//!
//! Unicode names (`пример.рф`) are converted with IDNA; `.` is the root.
//! A malformed name or an unsupported type exits 2 with a usage line.

use ruwhere::authdns::{IterativeResolver, TraceEvent};
use ruwhere::dns::{Name, RType};
use ruwhere::prelude::*;

fn usage(problem: &str) -> ! {
    eprintln!("resolver_trace: {problem}\nusage: resolver_trace [name] [A|NS|MX]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() > 2 {
        usage("too many arguments");
    }
    let rtype = match args.get(1).map(|t| t.to_ascii_uppercase()).as_deref() {
        None | Some("A") => RType::A,
        Some("NS") => RType::Ns,
        Some("MX") => RType::Mx,
        Some(_) => usage(&format!("unsupported type {:?}", args[1])),
    };
    let arg_name = args.first().map(|s| match s.as_str() {
        "." => Name::root(),
        s => match s.parse::<DomainName>() {
            Ok(d) => Name::from(&d),
            Err(e) => usage(&format!("invalid name {s:?}: {e}")),
        },
    });

    let mut world = World::new(WorldConfig::tiny());
    world.publish_tld_zones();

    let qname = match arg_name {
        Some(name) => name,
        None => {
            // No argument: pick the first seeded domain.
            let d = world
                .seed_names()
                .into_iter()
                .next()
                .expect("world has domains");
            Name::from(&d)
        }
    };

    let mut resolver = IterativeResolver::new(world.scanner_ip(), world.root_hints());
    resolver.enable_trace();
    println!(
        ";; resolving {qname} IN {rtype} from {}\n",
        world.scanner_ip()
    );

    let result = resolver.resolve(world.network_mut(), &qname, rtype);
    for ev in resolver.take_trace() {
        match ev {
            TraceEvent::Query {
                server,
                qname,
                rtype,
            } => {
                println!(";; -> query {server:<16} {qname} IN {rtype}")
            }
            TraceEvent::Referral {
                cut,
                glue,
                rejected_glue,
            } => {
                println!(";; <- referral below {cut} ({glue} glue, {rejected_glue} rejected)")
            }
            TraceEvent::Timeout { server } => println!(";; !! timeout from {server}"),
            TraceEvent::ServFail { server } => println!(";; !! SERVFAIL from {server}"),
            TraceEvent::Lame { server } => println!(";; !! lame answer from {server}"),
            TraceEvent::Truncated { server } => println!(";; !! truncated reply from {server}"),
            TraceEvent::Cname { target } => println!(";; <- CNAME chase to {target}"),
            TraceEvent::Done { outcome } => println!(";; == {outcome}"),
        }
    }

    println!();
    match result {
        Ok(res) => {
            for ip in res.addresses() {
                let geo = world.geo().lookup(world.today(), ip);
                let asn = world.network().topology().asn_of(ip);
                println!(
                    "{qname}\t300\tIN\t{rtype}\t{ip}   ; {} {}",
                    asn.map(|a| a.to_string()).unwrap_or_default(),
                    geo.map(|c| c.to_string()).unwrap_or_default(),
                );
            }
            for ns in res.ns_targets() {
                println!("{qname}\t3600\tIN\tNS\t{ns}");
            }
        }
        Err(e) => println!(";; resolution failed: {e}"),
    }
    println!("\n;; {} queries on the wire", resolver.queries_sent());
}
