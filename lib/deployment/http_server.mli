(** HTTP-server certificate deployment models (section 4.2, Table 4,
    Appendix B).

    Each software model accepts the administrator's certificate files in the
    layout it really uses, runs the configuration-time checks the paper
    catalogued (all verify the private key matches the first certificate;
    Azure Application Gateway and IIS additionally reject duplicate leaf
    certificates; nobody checks duplicate intermediates), and either serves a
    chain or refuses with a configuration error. *)

open Chaoschain_x509
module Keys = Chaoschain_crypto.Keys

type software =
  | Apache_pre_2_4_8   (** SSLCertificateFile + SSLCertificateChainFile *)
  | Apache             (** >= 2.4.8: full chain in one file *)
  | Nginx
  | Azure_app_gateway
  | Iis
  | Aws_elb            (** CertificateFile + Ca-bundle, like old Apache *)
  | Cloudflare         (** fully managed: always deploys compliantly *)

val software_to_string : software -> string
val all : software list

type file_layout =
  | Separate_files  (** SF1: CertificateFile.pem + Ca-bundle.pem + Privkey *)
  | Fullchain_file  (** SF2: FullChain.pem + Privkey *)
  | Pfx_file        (** SF3: CertificateFile.pfx *)

val layout_of : software -> file_layout

type config = {
  cert_file : Cert.t list;
      (** SF1: the CertificateFile contents; SF2/SF3: the full chain *)
  chain_file : Cert.t list;   (** SF1 only: the Ca-bundle contents *)
  private_key_of : Keys.public_key;
      (** the public half of the configured private key *)
}

type check = Private_key_match | Duplicate_leaf_check | Duplicate_intermediate_check

type result =
  | Deployed of Cert.t list    (** the chain the server will send *)
  | Config_error of string     (** deployment refused *)

val deploy : software -> config -> result

val table4_row : software -> (string * string) list
(** The Table 4 characteristics as label/value pairs. *)
