"""Negative fixture: a conformant broker scope (whose pump also serves a
relay's downstream face) plus a properly paired wire record — the
protoflow analyzer must report nothing here."""

import struct


def encode_piece(frame_id, piece, total):
    return struct.pack("<IHH", frame_id, piece, total)


def decode_piece(blob):
    return struct.unpack("<IHH", blob)


class Broker:  # speaks: broker
    def pump(self, msg):  # speaks: broker@serving, relay@downstream
        if msg.tag in ("ack", "seek"):
            self.advance(msg)
        elif msg.tag == "leave":
            self.depart(msg)
        else:
            self.unknown_controls += 1

    def renegotiate(self, conn, level):
        conn.send_control("tier", tier=level)
